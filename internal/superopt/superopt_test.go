package superopt

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/vm"
)

// xdpProg wraps ALU instructions into a runnable XDP program body.
func xdpProg(insns ...ebpf.Instruction) *ebpf.Program {
	return &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, MCPU: 2, Insns: insns}
}

// checkEquivalent asserts the optimizer output matches the input on sampled
// traffic.
func checkEquivalent(t *testing.T, pre, post *ebpf.Program) {
	t.Helper()
	if err := guard.ValidateProgram(post); err != nil {
		t.Fatalf("output invalid: %v", err)
	}
	if err := guard.DiffPrograms(pre, post, guard.Inputs(pre.Hook, 24, 3)); err != nil {
		t.Fatalf("output diverges: %v", err)
	}
}

// TestEvalSeqMatchesVM cross-checks the fast filter evaluator against the
// real vm on random ALU sequences — the filter may be stricter than the vm
// but never looser, and here it must agree exactly.
func TestEvalSeqMatchesVM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	allOps := []ebpf.ALUOp{
		ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUDiv, ebpf.ALUMod,
		ebpf.ALUOr, ebpf.ALUAnd, ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh,
		ebpf.ALUArsh, ebpf.ALUNeg, ebpf.ALUMov, ebpf.ALUEnd,
	}
	const nregs = 4
	liveIn := []ebpf.Register{0, 1, 2, 3}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		seq := make([]ebpf.Instruction, n)
		for i := range seq {
			op := allOps[rng.Intn(len(allOps))]
			dst := ebpf.Register(rng.Intn(nregs))
			switch {
			case op == ebpf.ALUEnd:
				width := []int32{16, 32, 64}[rng.Intn(3)]
				seq[i] = ebpf.ALU64Imm(ebpf.ALUEnd, dst, width)
			case op == ebpf.ALUNeg:
				seq[i] = ebpf.ALU64Imm(ebpf.ALUNeg, dst, 0)
			case rng.Intn(2) == 0:
				src := ebpf.Register(rng.Intn(nregs))
				if rng.Intn(2) == 0 {
					seq[i] = ebpf.ALU64Reg(op, dst, src)
				} else {
					seq[i] = ebpf.ALU32Reg(op, dst, src)
				}
			default:
				imm := int32(rng.Uint32())
				if rng.Intn(2) == 0 {
					seq[i] = ebpf.ALU64Imm(op, dst, imm)
				} else {
					seq[i] = ebpf.ALU32Imm(op, dst, imm)
				}
			}
		}
		vecs := randomVectors(nregs, int64(trial), 8)
		for _, out := range liveIn {
			m, err := harnessMachine(seq, liveIn, out, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, vec := range vecs {
				var rf regFile
				fillRegs(&rf, liveIn, vec)
				evalSeq(seq, &rf)
				got, _, runErr := m.Run(tracepointCtx(vec), nil)
				if runErr != nil {
					t.Fatalf("trial %d: vm error: %v", trial, runErr)
				}
				if uint64(got) != rf[out] {
					t.Fatalf("trial %d: seq %v out r%d: vm=%#x eval=%#x",
						trial, seq, out, uint64(got), rf[out])
				}
			}
		}
	}
}

func tracepointCtx(vec []uint64) []byte {
	ctx := make([]byte, 8*len(vec))
	for i, v := range vec {
		for b := 0; b < 8; b++ {
			ctx[8*i+b] = byte(v >> (8 * b))
		}
	}
	return ctx
}

// TestOptimizeMovChain: a copy-in / modify / copy-back chain folds down to a
// single constant move — the class of rewrite no fixed rule in bopt covers.
func TestOptimizeMovChain(t *testing.T) {
	prog := xdpProg(
		ebpf.Mov64Imm(ebpf.R6, 5),
		ebpf.Mov64Reg(ebpf.R1, ebpf.R6),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1),
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.Exit(),
	)
	out, st, err := Optimize(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewrites == 0 || out.NI() >= prog.NI() {
		t.Fatalf("no improvement: stats %+v, NI %d -> %d", st, prog.NI(), out.NI())
	}
	if out.NI() != 2 { // mov r0, 6; exit
		t.Errorf("NI = %d, want 2 (whole chain folds to one mov)", out.NI())
	}
	checkEquivalent(t, prog, out)
}

// TestOptimizeImmFold: consecutive immediates on a non-constant register
// fold into one — outside CP&DCE's reach because the register value is
// unknown at compile time.
func TestOptimizeImmFold(t *testing.T) {
	prog := &ebpf.Program{Name: "t", Hook: ebpf.HookTracepoint, MCPU: 3, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 5),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 3),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R2),
		ebpf.Exit(),
	}}
	out, st, err := Optimize(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewrites == 0 || out.NI() >= prog.NI() {
		t.Fatalf("no improvement: stats %+v, NI %d -> %d", st, prog.NI(), out.NI())
	}
	checkEquivalent(t, prog, out)
}

// TestOptimizeDeadWindow: a window whose definitions are all dead is
// replaced by nothing without any search.
func TestOptimizeDeadWindow(t *testing.T) {
	prog := xdpProg(
		ebpf.Mov64Imm(ebpf.R3, 7),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, 9),
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	)
	out, _, err := Optimize(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NI() != 2 {
		t.Fatalf("NI = %d, want 2 (dead pair removed)", out.NI())
	}
	checkEquivalent(t, prog, out)
}

// TestOptimizeBranchIntoWindowStart: a branch targeting the first
// instruction of a rewritten window must be redirected to the replacement.
func TestOptimizeBranchIntoWindowStart(t *testing.T) {
	prog := xdpProg(
		ebpf.Mov64Imm(ebpf.R6, 1),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R6, 1, 2), // -> element 4
		ebpf.Mov64Imm(ebpf.R6, 2),
		ebpf.Jump(1), // -> element 5 (skip window start)
		// window: branch target lands here
		ebpf.Mov64Reg(ebpf.R7, ebpf.R6),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R7, 1),
		ebpf.Mov64Reg(ebpf.R6, ebpf.R7),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.Exit(),
	)
	out, _, err := Optimize(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, prog, out)
}

// TestApplyRewritesBranchIntoWindowStart: a branch into the first element of
// a rewritten window lands on the replacement's first instruction, not on
// what follows the replacement.
func TestApplyRewritesBranchIntoWindowStart(t *testing.T) {
	prog := xdpProg(
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Mov64Imm(ebpf.R2, 0),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R2, 0, 1), // always taken -> element 4
		ebpf.Mov64Imm(ebpf.R0, 99),
		ebpf.Mov64Imm(ebpf.R0, 1), // window [4,6): r0 = 2
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R0, 1),
		ebpf.Exit(),
	)
	out, err := applyRewrites(prog, []ebpf.Edit{{Start: 4, End: 6, Repl: []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 2)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.BranchTarget(2); got != 4 || out.Insns[4] != ebpf.Mov64Imm(ebpf.R0, 2) {
		t.Fatalf("branch lands on element %d (%s), want 4, the replacement", got, ebpf.Mnemonic(out.Insns[got]))
	}
	in := guard.Inputs(prog.Hook, 1, 1)[0]
	for _, p := range []*ebpf.Program{prog, out} {
		m, err := vm.New(p, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r0, _, err := m.Run(in.Ctx, in.Pkt); err != nil || r0 != 2 {
			t.Fatalf("%d insns: r0 = %d, %v; want 2", len(p.Insns), r0, err)
		}
	}
}

// TestOptimizeDeterministic: identical inputs and configuration produce
// bit-identical outputs and candidate counts regardless of worker count. The
// chains have one, two and three live-in registers, so under -race the
// workers search from several shared vector sets at once.
func TestOptimizeDeterministic(t *testing.T) {
	prog := &ebpf.Program{Name: "t", Hook: ebpf.HookTracepoint, MCPU: 3, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.Mov64Reg(ebpf.R4, ebpf.R2),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R4, ebpf.R3),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R4),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 4),
		ebpf.ALU64Imm(ebpf.ALUSub, ebpf.R2, 1),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R5, ebpf.R1, 16),
		ebpf.ALU64Reg(ebpf.ALUXor, ebpf.R5, ebpf.R2),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R5, ebpf.R3),
		ebpf.ALU64Reg(ebpf.ALUXor, ebpf.R5, ebpf.R2),
		ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R5, 0xff),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 24),
		ebpf.ALU64Imm(ebpf.ALULsh, ebpf.R6, 3),
		ebpf.ALU64Imm(ebpf.ALULsh, ebpf.R6, 2),
		ebpf.ALU64Reg(ebpf.ALUOr, ebpf.R6, ebpf.R5),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R2),
		ebpf.Exit(),
	}}
	var outs []*ebpf.Program
	var stats []Stats
	for _, workers := range []int{1, 4} {
		out, st, err := Optimize(prog, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outs, stats = append(outs, out), append(stats, st)
	}
	if !reflect.DeepEqual(outs[0].Insns, outs[1].Insns) {
		t.Errorf("outputs differ across worker counts:\n%v\n%v", outs[0].Insns, outs[1].Insns)
	}
	if stats[0].Candidates != stats[1].Candidates || stats[0].Searches != stats[1].Searches {
		t.Errorf("searches/candidates differ across worker counts: %d/%d vs %d/%d",
			stats[0].Searches, stats[0].Candidates, stats[1].Searches, stats[1].Candidates)
	}
	if stats[0].Searches < 8 || stats[0].Rewrites == 0 {
		t.Errorf("stats %+v: want several searches and at least one rewrite", stats[0])
	}
	checkEquivalent(t, prog, outs[0])
}

// TestVerdictCachedUnderBudget: an exhausted search is still memoized, so
// the warm pass skips it, and a different budget does not reuse it.
func TestVerdictCachedUnderBudget(t *testing.T) {
	prog := &ebpf.Program{Name: "t", Hook: ebpf.HookTracepoint, MCPU: 3, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.ALU64Imm(ebpf.ALUMul, ebpf.R2, 37),
		ebpf.ALU64Imm(ebpf.ALUXor, ebpf.R2, 11),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R2),
		ebpf.Exit(),
	}}
	cache := NewMemCache()
	_, st1, err := Optimize(prog, Config{Cache: cache, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Searches == 0 {
		t.Fatal("first pass ran no searches")
	}
	_, st2, err := Optimize(prog, Config{Cache: cache, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Searches != 0 || st2.CacheHits == 0 {
		t.Errorf("second pass: searches=%d hits=%d, want 0 and >0", st2.Searches, st2.CacheHits)
	}
	_, st3, err := Optimize(prog, Config{Cache: cache, Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Searches == 0 {
		t.Error("budget change must not reuse verdicts found under a different budget")
	}
}

// TestCachePersistence: verdicts survive Close/Open, including improved
// verdicts with and without replacement bodies, and a torn journal tail or
// an undecodable entry degrades to a miss instead of an error.
func TestCachePersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Verdict{
		"k-improved": {Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(0, 6)}},
		"k-dead":     {Improved: true},
		"k-negative": {},
	}
	for k, v := range want {
		c.Put(k, v)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, ok := c2.Get(k)
		if !ok {
			t.Fatalf("key %q lost across reopen", k)
		}
		if got.Improved != v.Improved || len(got.Repl) != len(v.Repl) {
			t.Errorf("key %q: got %+v want %+v", k, got, v)
		}
		if len(v.Repl) > 0 && got.Repl[0] != v.Repl[0] {
			t.Errorf("key %q: replacement corrupted: %+v", k, got.Repl[0])
		}
	}
	// Unknown garbage appended raw to the journal must not poison reloads.
	c2.Put("k-live", Verdict{Improved: true})
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn tail garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer c3.Close()
	if _, ok := c3.Get("k-live"); !ok {
		t.Error("intact entry lost after torn tail")
	}
}

// TestCanonicalSharing: windows that differ only in register names share a
// cache key, so one program's search pays for another's hit.
func TestCanonicalSharing(t *testing.T) {
	a := xdpProg(
		ebpf.Mov64Reg(ebpf.R1, ebpf.R6),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.Exit(),
	)
	b := xdpProg(
		ebpf.Mov64Reg(ebpf.R3, ebpf.R8),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, 1),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	)
	wa, err := extractWindows(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := extractWindows(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(wa) == 0 || len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		ka := cacheKey(canonicalize(wa[i]), false, DefaultBudget)
		kb := cacheKey(canonicalize(wb[i]), false, DefaultBudget)
		if ka != kb {
			t.Errorf("window %d: keys differ after renaming", i)
		}
	}
	cache := NewMemCache()
	if _, _, err := Optimize(a, Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	_, st, err := Optimize(b, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st.Searches != 0 {
		t.Errorf("renamed twin ran %d searches, want all verdicts shared", st.Searches)
	}
}

// TestWindowsExcludeUnsafeInstructions: memory, control flow and the frame
// pointer never appear inside a window.
func TestWindowsExcludeUnsafeInstructions(t *testing.T) {
	prog := &ebpf.Program{Name: "t", Hook: ebpf.HookTracepoint, MCPU: 3, Insns: []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),              // fp read: not windowable
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -8),       // fp-derived but plain ALU: windowable
		ebpf.StoreImm(ebpf.SizeW, ebpf.R2, 0, 1),      // store: not windowable
		ebpf.LoadMem(ebpf.SizeW, ebpf.R3, ebpf.R2, 0), // load: not windowable
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	}}
	ws, err := extractWindows(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, ins := range w.insns {
			if !windowable(ins) {
				t.Errorf("window [%d,%d) contains non-ALU %v", w.start, w.end, ins)
			}
		}
	}
}
