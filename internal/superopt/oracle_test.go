package superopt

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// The oracle is the search loop as it was before the column enumerator: a
// DFS that materialises every candidate and re-executes it from instruction
// 0 on every test vector. It is the reference searchWindow must agree with,
// candidate for candidate — same verdict, same count, same budget abort.

// regFile is the register state of the oracle's per-vector evaluator.
type regFile [ebpf.NumRegisters]uint64

// evalSeq executes a straight-line ALU sequence over regs, one ebpf.EvalALU
// per instruction.
func evalSeq(insns []ebpf.Instruction, regs *regFile) {
	for _, ins := range insns {
		op := ins.ALUOpField()
		src := uint64(int64(ins.Imm))
		if ins.SourceField() == ebpf.SourceX && op != ebpf.ALUEnd {
			src = regs[ins.Src]
		}
		regs[ins.Dst], _ = ebpf.EvalALU(op, ins.Class() == ebpf.ClassALU, regs[ins.Dst], src)
	}
}

// fillRegs loads a live-in vector into a register file; every other register
// gets its poison.
func fillRegs(rf *regFile, liveIn []ebpf.Register, vec []uint64) {
	for i := range rf {
		rf[i] = poison(ebpf.Register(i))
	}
	for i, r := range liveIn {
		rf[r] = vec[i]
	}
}

type oracle struct {
	cw         canonWindow
	cfg        Config
	liveIn     []ebpf.Register
	liveOut    []ebpf.Register
	defs       []ebpf.Register
	imms       []int32
	vectors    [][]uint64
	baseline   [][]uint64 // expected live-out values per vector
	proofVecs  [][]uint64
	candidates int
}

func oracleSearchWindow(cw canonWindow, cfg Config) (Verdict, int) {
	if cw.liveOut == 0 {
		return Verdict{Improved: true}, 0
	}
	s := &oracle{
		cw:      cw,
		cfg:     cfg,
		liveIn:  regList(cw.liveIn),
		liveOut: regList(cw.liveOut),
		defs:    regList(cw.defs),
		imms:    immPool(cw.insns),
	}
	s.vectors = buildVectors(len(s.liveIn), cfg.Seed)
	s.proofVecs = append(append([][]uint64(nil), s.vectors...), randomVectors(len(s.liveIn), cfg.Seed+0x517e, 32)...)
	s.baseline = make([][]uint64, len(s.vectors))
	var rf regFile
	for vi, vec := range s.vectors {
		fillRegs(&rf, s.liveIn, vec)
		evalSeq(cw.insns, &rf)
		outs := make([]uint64, len(s.liveOut))
		for oi, r := range s.liveOut {
			outs[oi] = rf[r]
		}
		s.baseline[vi] = outs
	}
	for l := 0; l < len(cw.insns); l++ {
		seq := make([]ebpf.Instruction, l)
		found, abort := s.dfs(seq, 0, cw.liveIn)
		if found {
			return Verdict{Improved: true, Repl: seq}, s.candidates
		}
		if abort {
			break
		}
	}
	return Verdict{}, s.candidates
}

func (s *oracle) dfs(seq []ebpf.Instruction, depth int, readable analysis.RegMask) (found, abort bool) {
	if depth == len(seq) {
		s.candidates++
		if s.candidates > s.cfg.Budget {
			return false, true
		}
		if s.accept(seq) && proveEquivalent(s.cw.insns, seq, s.liveIn, s.liveOut, s.proofVecs, s.cfg.Seed) {
			return true, false
		}
		return false, false
	}
	last := depth == len(seq)-1
	try := func(ins ebpf.Instruction) (bool, bool) {
		seq[depth] = ins
		return s.dfs(seq, depth+1, readable.With(ins.Dst))
	}
	for _, dst := range s.defs {
		if last && !s.cw.liveOut.Has(dst) {
			continue
		}
		dstReadable := readable.Has(dst)
		prevDefined := depth > 0 && seq[depth-1].Dst == dst
		for _, op := range searchOps {
			switch op {
			case ebpf.ALUNeg:
				if !dstReadable {
					continue
				}
				if f, a := try(ebpf.ALU64Imm(ebpf.ALUNeg, dst, 0)); f || a {
					return f, a
				}
			case ebpf.ALUMov:
				if prevDefined {
					continue
				}
				for _, src := range s.defs {
					if src == dst || !readable.Has(src) {
						continue
					}
					if f, a := try(ebpf.Mov64Reg(dst, src)); f || a {
						return f, a
					}
					if s.cfg.ALU32 {
						if f, a := try(ebpf.Mov32Reg(dst, src)); f || a {
							return f, a
						}
					}
				}
				if s.cfg.ALU32 && dstReadable {
					if f, a := try(ebpf.Mov32Reg(dst, dst)); f || a {
						return f, a
					}
				}
				for _, imm := range s.imms {
					if f, a := try(ebpf.Mov64Imm(dst, imm)); f || a {
						return f, a
					}
				}
			default:
				if !dstReadable {
					continue
				}
				for _, src := range s.defs {
					if !readable.Has(src) {
						continue
					}
					if src == dst && !selfOpUseful(op) {
						continue
					}
					if f, a := try(ebpf.ALU64Reg(op, dst, src)); f || a {
						return f, a
					}
				}
				for _, imm := range s.imms {
					if immIdentity(op, imm) {
						continue
					}
					if f, a := try(ebpf.ALU64Imm(op, dst, imm)); f || a {
						return f, a
					}
				}
			}
		}
	}
	return false, false
}

func (s *oracle) accept(seq []ebpf.Instruction) bool {
	var rf regFile
	for vi, vec := range s.vectors {
		fillRegs(&rf, s.liveIn, vec)
		evalSeq(seq, &rf)
		base := s.baseline[vi]
		for oi, r := range s.liveOut {
			if rf[r] != base[oi] {
				return false
			}
		}
	}
	return true
}

// parityBudgets are the budgets every parity check runs at: an abort on the
// very first candidate, one inside the length-1 level, one inside a deeper
// level, and the shipped default.
var parityBudgets = []int{1, 50, 5000, DefaultBudget}

// checkParity searches cw with both implementations and fails on any
// difference in verdict or candidate count.
func checkParity(t testing.TB, cw canonWindow, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	want, wantN := oracleSearchWindow(cw, cfg)
	vs := newVectorSet(bits.OnesCount16(uint16(cw.liveIn)), cfg.Seed)
	got, gotN := searchWindow(cw, cfg, vs)
	if gotN != wantN {
		t.Errorf("window %v liveOut=%#x alu32=%v budget=%d: %d candidates, oracle %d",
			cw.insns, cw.liveOut, cfg.ALU32, cfg.Budget, gotN, wantN)
	}
	if got.Improved != want.Improved || !reflect.DeepEqual(got.Repl, want.Repl) {
		t.Errorf("window %v liveOut=%#x alu32=%v budget=%d: verdict %+v, oracle %+v",
			cw.insns, cw.liveOut, cfg.ALU32, cfg.Budget, got, want)
	}
}

// CheckProgramParity runs checkParity on every canonical window of prog not
// already in seen, with ALU32 on and off at every parity budget, and returns
// how many windows were new. It is exported to corpus_test.go, which can
// import internal/core to build the programs.
func CheckProgramParity(t *testing.T, prog *ebpf.Program, seen map[string]bool) int {
	t.Helper()
	windows, err := extractWindows(prog)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, w := range windows {
		cw := canonicalize(w)
		key := cacheKey(cw, false, 0)
		if seen[key] {
			continue
		}
		seen[key] = true
		fresh++
		for _, alu32 := range []bool{true, false} {
			for _, budget := range parityBudgets {
				checkParity(t, cw, Config{ALU32: alu32, Budget: budget})
			}
		}
	}
	return fresh
}

// randomWindow draws a 2-5 instruction ALU window over four registers, with
// a live-out obligation that is the masked subset of what it defines.
func randomWindow(rng *rand.Rand, outMask uint16) window {
	ops := []ebpf.ALUOp{
		ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUDiv, ebpf.ALUMod,
		ebpf.ALUOr, ebpf.ALUAnd, ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh,
		ebpf.ALUArsh, ebpf.ALUNeg, ebpf.ALUMov, ebpf.ALUMov, ebpf.ALUEnd,
	}
	imms := []int32{0, 1, -1, 2, 3, 5, 8, 16, 31, 32, 63, 255, 0x7fffffff, -0x80000000}
	const nregs = 4
	w := window{insns: make([]ebpf.Instruction, minWindow+rng.Intn(maxWindow-minWindow+1))}
	for i := range w.insns {
		op := ops[rng.Intn(len(ops))]
		dst, src := ebpf.Register(rng.Intn(nregs)), ebpf.Register(rng.Intn(nregs))
		imm := imms[rng.Intn(len(imms))]
		wide := rng.Intn(4) != 0
		var ins ebpf.Instruction
		switch {
		case op == ebpf.ALUEnd:
			ins = ebpf.ALU64Imm(op, dst, []int32{16, 32, 64}[rng.Intn(3)])
		case op == ebpf.ALUNeg:
			ins = ebpf.ALU64Imm(op, dst, 0)
		case rng.Intn(2) == 0 && wide:
			ins = ebpf.ALU64Reg(op, dst, src)
		case wide:
			ins = ebpf.ALU64Imm(op, dst, imm)
		case rng.Intn(2) == 0:
			ins = ebpf.ALU32Reg(op, dst, src)
		default:
			ins = ebpf.ALU32Imm(op, dst, imm)
		}
		w.insns[i] = ins
		eff := analysis.InsnEffects(ins)
		w.liveIn |= eff.Uses &^ w.defs
		w.defs |= eff.Defs
	}
	w.liveOut = w.defs & analysis.RegMask(outMask)
	if w.liveOut == 0 {
		w.liveOut = w.defs
	}
	return w
}

// FuzzSearchParity holds the column enumerator to the oracle on random
// windows: every ALU op the extractor admits, 32- and 64-bit, random live-out
// obligations, budgets from a first-candidate abort to the default.
func FuzzSearchParity(f *testing.F) {
	f.Add(int64(1), uint16(0xffff), true, uint16(0))
	f.Add(int64(2), uint16(1), false, uint16(1))
	f.Add(int64(3), uint16(6), true, uint16(700))
	f.Add(int64(4), uint16(9), false, uint16(40000))
	f.Fuzz(func(t *testing.T, seed int64, outMask uint16, alu32 bool, budget uint16) {
		cw := canonicalize(randomWindow(rand.New(rand.NewSource(seed)), outMask))
		checkParity(t, cw, Config{ALU32: alu32, Budget: int(budget), Seed: seed})
	})
}

// TestSearchParityRandom runs the fuzz body over a fixed stream so plain
// `go test` exercises windows the corpus never produces (div, mod, end,
// 32-bit ops, three and four live-ins).
func TestSearchParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		cw := canonicalize(randomWindow(rng, uint16(rng.Uint32())))
		checkParity(t, cw, Config{ALU32: i%2 == 0, Budget: parityBudgets[i%len(parityBudgets)], Seed: int64(i)})
	}
}

// TestDeadLeavesAreCounted pins the budget contract on the path that skips
// evaluation. Both live-out registers of this window differ from the entry
// state, so every length-1 candidate is dead on the register it does not
// write and the whole level is counted without being run; a budget that
// lands anywhere inside it must still abort on exactly that candidate.
func TestDeadLeavesAreCounted(t *testing.T) {
	cw := canonicalize(window{
		insns: []ebpf.Instruction{
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 2),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 3),
		},
		liveIn:  analysis.RegMask(0).With(ebpf.R1).With(ebpf.R2),
		defs:    analysis.RegMask(0).With(ebpf.R1).With(ebpf.R2),
		liveOut: analysis.RegMask(0).With(ebpf.R1).With(ebpf.R2),
	})
	cfg := Config{ALU32: true}.withDefaults()
	vs := newVectorSet(2, cfg.Seed)

	s := newSearcher(cw, cfg, vs)
	if s.levels[0].differs != cw.liveOut {
		t.Fatalf("entry state differs on %#x, want both live-outs %#x", s.levels[0].differs, cw.liveOut)
	}
	s.seq = s.seq[:1]
	if found, abort := s.dfs(0, cw.liveIn, noReg); found || abort {
		t.Fatalf("length-1 level: found=%v abort=%v", found, abort)
	}
	level1 := s.candidates
	if level1 < 50 {
		t.Fatalf("length-1 level counted %d candidates, want the whole vocabulary", level1)
	}

	full, total := searchWindow(cw, cfg, vs)
	if !full.Improved || len(full.Repl) != 2 {
		t.Fatalf("full search: %+v", full)
	}
	// Candidate 1 is the empty sequence; 2..level1+1 are the dead level.
	for budget := 1; budget <= level1+3; budget++ {
		cfg.Budget = budget
		v, n := searchWindow(cw, cfg, vs)
		if v.Improved || n != budget+1 {
			t.Fatalf("budget %d: verdict %+v after %d candidates, want an abort on candidate %d", budget, v, n, budget+1)
		}
		if _, on := oracleSearchWindow(cw, cfg); on != n {
			t.Fatalf("budget %d: %d candidates, oracle %d", budget, n, on)
		}
	}
	if total <= level1+4 {
		t.Fatalf("full search took %d candidates, level 1 alone is %d", total, level1)
	}
}
