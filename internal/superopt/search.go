package superopt

import (
	"sort"

	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// Verdict is the memoized outcome of one window search.
type Verdict struct {
	// Improved reports that Repl (possibly empty) is a proven, strictly
	// shorter replacement for the canonical window.
	Improved bool
	// Repl is the replacement in canonical registers.
	Repl []ebpf.Instruction
}

// searchOps is the replacement vocabulary, most-likely-useful first. Div and
// mod never shorten ALU windows under the uniform cost model and are
// excluded.
var searchOps = []ebpf.ALUOp{
	ebpf.ALUMov, ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUAnd, ebpf.ALUOr,
	ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh, ebpf.ALUMul,
	ebpf.ALUNeg,
}

// searchWindow resolves one canonical window: it enumerates candidate
// sequences strictly shorter than the window, filters them on vs's test
// vectors with the fast evaluator, and proves survivors on the vm. It
// returns the verdict plus the number of candidates counted against the
// budget.
func searchWindow(cw canonWindow, cfg Config, vs *vectorSet) (Verdict, int) {
	if cw.liveOut == 0 {
		// Nothing the window defines is live: it is dead code and the empty
		// sequence replaces it (pure ALU has no side effects to preserve).
		return Verdict{Improved: true}, 0
	}
	s := newSearcher(cw, cfg, vs)
	repl, ok := s.run()
	if !ok {
		return Verdict{}, s.candidates
	}
	return Verdict{Improved: true, Repl: repl}, s.candidates
}

// eagerPrefix is how many leading vectors of an interior column are computed
// when its instruction is pushed. The rest is computed only if a complete
// candidate agrees with the window on all of these.
const eagerPrefix = 8

// noReg stands for "no register" where one is optional.
const noReg = ebpf.Register(ebpf.NumRegisters)

// level is the register state after a prefix of the candidate: levels[0] is
// the window's entry state, levels[k] the state after k instructions. A state
// is one column per register, held as indices into searcher.table, so
// pushing an instruction copies eleven bytes and repoints the one register it
// wrote at the level's own column; every other column is the level below's.
type level struct {
	col [ebpf.NumRegisters]uint8
	ins ebpf.Instruction
	// full reports that the level's own column is computed past the eager
	// prefix.
	full bool
	// differs holds the live-out registers whose column differs from the
	// window's somewhere in the eager prefix.
	differs analysis.RegMask
}

type searcher struct {
	cw      canonWindow
	cfg     Config
	vs      *vectorSet
	liveIn  []ebpf.Register
	liveOut []ebpf.Register
	defs    []ebpf.Register
	imms    []int32
	prefix  int     // min(eagerPrefix, vs.size)
	want    columns // the window's live-out columns
	// table[r], r < NumRegisters, is register r's column in the entry state;
	// table[NumRegisters+k] is levels[k]'s own column.
	table      [][]uint64
	levels     []level
	seq        []ebpf.Instruction
	choices    map[choiceKey][]choiceGroup
	candidates int
}

func newSearcher(cw canonWindow, cfg Config, vs *vectorSet) *searcher {
	s := &searcher{
		cw:      cw,
		cfg:     cfg,
		vs:      vs,
		liveIn:  regList(cw.liveIn),
		liveOut: regList(cw.liveOut),
		defs:    regList(cw.defs),
		imms:    immPool(cw.insns),
		prefix:  min(eagerPrefix, vs.size),
		table:   make([][]uint64, ebpf.NumRegisters+len(cw.insns)+1),
		levels:  make([]level, len(cw.insns)-1),
		seq:     make([]ebpf.Instruction, 0, len(cw.insns)-1),
		choices: map[choiceKey][]choiceGroup{},
	}
	copy(s.table, vs.poison[:])
	for i, r := range s.liveIn {
		s.table[r] = vs.liveIn[i]
	}
	root := &s.levels[0]
	for r := range root.col {
		root.col[r] = uint8(r)
	}
	slab := make([]uint64, (len(cw.insns)+len(s.liveOut))*vs.size)
	for i := range cw.insns {
		s.table[ebpf.NumRegisters+1+i] = carve(&slab, vs.size)
	}
	// Run the window itself, in full, over the columns the levels will own:
	// its live-out columns, copied out, are what every candidate is compared
	// with.
	end := *root
	for k := range cw.insns {
		ins, own := &cw.insns[k], uint8(ebpf.NumRegisters+1+k)
		evalColumn(ins, s.column(&end, ins.Dst), s.source(&end, ins), s.table[own], 0, vs.size)
		end.col[ins.Dst] = own
	}
	for _, r := range s.liveOut {
		s.want[r] = carve(&slab, vs.size)
		copy(s.want[r], s.column(&end, r))
	}
	root.differs = s.differing(root, cw.liveOut, 0, s.prefix)
	return s
}

// column is register r's column in lv.
func (s *searcher) column(lv *level, r ebpf.Register) []uint64 { return s.table[lv.col[r]] }

// source is the column of the register ins reads besides its dst, in lv; nil
// when its source is an immediate.
func (s *searcher) source(lv *level, ins *ebpf.Instruction) []uint64 {
	if ins.SourceField() == ebpf.SourceX && ins.ALUOpField() != ebpf.ALUEnd {
		return s.column(lv, ins.Src)
	}
	return nil
}

// push makes levels[k] the state after ins runs on levels[k-1], computing the
// eager prefix of the one column ins writes.
func (s *searcher) push(k int, ins *ebpf.Instruction) {
	lv, below := &s.levels[k], &s.levels[k-1]
	own := uint8(ebpf.NumRegisters + k)
	evalColumn(ins, s.column(below, ins.Dst), s.source(below, ins), s.table[own], 0, s.prefix)
	lv.col, lv.differs = below.col, below.differs
	lv.col[ins.Dst] = own
	lv.ins, lv.full = *ins, s.prefix == s.vs.size
	if s.cw.liveOut.Has(ins.Dst) {
		lv.differs = lv.differs.Without(ins.Dst) |
			s.differing(lv, analysis.RegMask(0).With(ins.Dst), 0, s.prefix)
	}
}

// fill computes the rest of table[i] when it is a level's column still short
// of its lazy tail — and first the rest of the columns that one reads.
func (s *searcher) fill(i uint8) {
	if i < ebpf.NumRegisters {
		return // entry columns are complete
	}
	k := int(i) - ebpf.NumRegisters
	lv, below := &s.levels[k], &s.levels[k-1]
	if lv.full {
		return
	}
	src := s.source(below, &lv.ins)
	s.fill(below.col[lv.ins.Dst])
	if src != nil {
		s.fill(below.col[lv.ins.Src])
	}
	evalColumn(&lv.ins, s.column(below, lv.ins.Dst), src, s.table[i], s.prefix, s.vs.size)
	lv.full = true
}

// differing returns the registers of regs whose column in lv differs from
// the window's over vectors [lo,hi).
func (s *searcher) differing(lv *level, regs analysis.RegMask, lo, hi int) analysis.RegMask {
	var d analysis.RegMask
	for _, r := range s.liveOut {
		if !regs.Has(r) {
			continue
		}
		got, want := s.column(lv, r), s.want[r]
		for v := lo; v < hi; v++ {
			if got[v] != want[v] {
				d = d.With(r)
				break
			}
		}
	}
	return d
}

// settled reports whether every live-out register except dst (noReg for
// none) equals the window's on every vector in lv, computing the lazy
// tails that takes.
func (s *searcher) settled(lv *level, dst ebpf.Register) bool {
	others := s.cw.liveOut
	if dst != noReg {
		others = others.Without(dst)
	}
	if lv.differs&others != 0 {
		return false
	}
	for _, r := range s.liveOut {
		if others.Has(r) {
			s.fill(lv.col[r])
		}
	}
	return s.differing(lv, others, s.prefix, s.vs.size) == 0
}

// immPool builds the immediate vocabulary: the window's own immediates,
// 0/1/-1, and the pairwise arithmetic closure of the window immediates so
// foldable constants (add 5; add 3 -> add 8) are reachable in one step.
func immPool(insns []ebpf.Instruction) []int32 {
	seen := map[int32]bool{0: true, 1: true, -1: true}
	var window []int32
	for _, ins := range insns {
		if ins.SourceField() == ebpf.SourceK && ins.ALUOpField() != ebpf.ALUEnd && ins.ALUOpField() != ebpf.ALUNeg {
			if !seen[ins.Imm] {
				seen[ins.Imm] = true
			}
			window = append(window, ins.Imm)
		}
	}
	for _, a := range window {
		for _, b := range window {
			for _, v := range [...]int32{a + b, a - b, a * b, a | b, a & b, a ^ b} {
				seen[v] = true
			}
		}
	}
	pool := make([]int32, 0, len(seen))
	for v := range seen {
		pool = append(pool, v)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	const maxImms = 32
	if len(pool) > maxImms {
		pool = pool[:maxImms]
	}
	return pool
}

// run searches lengths 0..len(window)-1 in order, so the first hit is the
// minimal-length replacement and the outcome is deterministic.
func (s *searcher) run() ([]ebpf.Instruction, bool) {
	for l := 0; l < len(s.cw.insns); l++ {
		s.seq = s.seq[:l]
		var found, abort bool
		if l == 0 {
			abort = !s.spend(1)
			found = !abort && s.settled(&s.levels[0], noReg) && s.proved()
		} else {
			found, abort = s.dfs(0, s.cw.liveIn, noReg)
		}
		if found {
			return s.seq, true
		}
		if abort {
			break
		}
	}
	return nil, false
}

// spend counts n more candidates against the budget. When it runs out among
// them it reports false, leaving the count where counting them one at a time
// would have stopped.
func (s *searcher) spend(n int) bool {
	if s.candidates += n; s.candidates > s.cfg.Budget {
		s.candidates = s.cfg.Budget + 1
		return false
	}
	return true
}

// proved is the vm proof of the complete candidate in seq.
func (s *searcher) proved() bool {
	return proveEquivalent(s.cw.insns, s.seq, s.liveIn, s.liveOut, s.vs.proof, s.cfg.Seed)
}

// dfs enumerates seq[depth:] over levels[depth]. readable tracks which
// canonical registers hold defined values (live-ins plus everything the
// candidate has written); prev is the register seq[depth-1] wrote
// (noReg at depth 0). Interior instructions are pushed as levels; the last
// one never is.
func (s *searcher) dfs(depth int, readable analysis.RegMask, prev ebpf.Register) (found, abort bool) {
	lv := &s.levels[depth]
	last := depth == len(s.seq)-1
	for _, g := range s.choicesAt(readable, prev, last) {
		if last {
			if found, abort = s.leaves(lv, g); found || abort {
				return found, abort
			}
			continue
		}
		for i := range g.insns {
			s.seq[depth] = g.insns[i]
			s.push(depth+1, &g.insns[i])
			if found, abort = s.dfs(depth+1, readable.With(g.dst), g.dst); found || abort {
				return found, abort
			}
		}
	}
	return false, false
}

// leaves counts and judges the complete candidates that end lv's state with
// one of g's instructions. One is accepted when every live-out column equals
// the window's on every filter vector and the vm proof agrees. Its own column
// is compared in place, stopping at the first difference; and when some other
// live-out register already differs in lv, which no last instruction can
// repair, the group is counted — the budget must run out on the same
// candidate either way — without being evaluated at all.
func (s *searcher) leaves(lv *level, g choiceGroup) (found, abort bool) {
	if lv.differs.Without(g.dst) != 0 {
		return false, !s.spend(len(g.insns))
	}
	a, want := s.column(lv, g.dst), s.want[g.dst]
	for i := range g.insns {
		if !s.spend(1) {
			return false, true
		}
		ins := &g.insns[i]
		src := s.source(lv, ins)
		if !columnIs(ins, a, src, want, 0, s.prefix) {
			continue
		}
		s.fill(lv.col[g.dst])
		if src != nil {
			s.fill(lv.col[ins.Src])
		}
		if !columnIs(ins, a, src, want, s.prefix, s.vs.size) || !s.settled(lv, g.dst) {
			continue
		}
		s.seq[len(s.seq)-1] = *ins
		if s.proved() {
			return true, false
		}
	}
	return false, false
}

// choiceKey is everything the instructions that may come next depend on.
type choiceKey struct {
	readable analysis.RegMask
	prev     ebpf.Register
	last     bool
}

// choiceGroup is the next-instruction candidates writing one register.
type choiceGroup struct {
	dst   ebpf.Register
	insns []ebpf.Instruction
}

// choicesAt is the enumeration order, stated once for interior and last
// instructions alike: destinations ascending, then searchOps order, register
// sources before immediates. Sequences that read an undefined register,
// overwrite the previous instruction's only effect, or end by defining a
// dead register are never constructed. The lists are memoized per searcher:
// a search revisits the same few keys at every node.
func (s *searcher) choicesAt(readable analysis.RegMask, prev ebpf.Register, last bool) []choiceGroup {
	key := choiceKey{readable, prev, last}
	if gs, ok := s.choices[key]; ok {
		return gs
	}
	var gs []choiceGroup
	for _, dst := range s.defs {
		if last && !s.cw.liveOut.Has(dst) {
			continue // a final insn defining a dead register is wasted
		}
		var insns []ebpf.Instruction
		dstReadable := readable.Has(dst)
		for _, op := range searchOps {
			switch op {
			case ebpf.ALUNeg:
				if dstReadable {
					insns = append(insns, ebpf.ALU64Imm(ebpf.ALUNeg, dst, 0))
				}
			case ebpf.ALUMov:
				if prev == dst {
					continue // would kill the previous insn's only effect
				}
				for _, src := range s.defs {
					if src == dst || !readable.Has(src) {
						continue
					}
					insns = append(insns, ebpf.Mov64Reg(dst, src))
					if s.cfg.ALU32 {
						insns = append(insns, ebpf.Mov32Reg(dst, src))
					}
				}
				if s.cfg.ALU32 && dstReadable {
					// movl dst, dst: the zero-extension idiom.
					insns = append(insns, ebpf.Mov32Reg(dst, dst))
				}
				for _, imm := range s.imms {
					insns = append(insns, ebpf.Mov64Imm(dst, imm))
				}
			default:
				if !dstReadable {
					continue // binary ops read dst
				}
				for _, src := range s.defs {
					if !readable.Has(src) {
						continue
					}
					if src == dst && !selfOpUseful(op) {
						continue
					}
					insns = append(insns, ebpf.ALU64Reg(op, dst, src))
				}
				for _, imm := range s.imms {
					if !immIdentity(op, imm) {
						insns = append(insns, ebpf.ALU64Imm(op, dst, imm))
					}
				}
			}
		}
		gs = append(gs, choiceGroup{dst, insns})
	}
	s.choices[key] = gs
	return gs
}

// selfOpUseful reports whether op with src == dst computes something a
// shorter form doesn't: add (doubling) and mul (squaring) do; and/or are
// identities; sub/xor/shifts are redundant with mov 0 or rarely useful.
func selfOpUseful(op ebpf.ALUOp) bool {
	return op == ebpf.ALUAdd || op == ebpf.ALUMul
}

// immIdentity reports op with this immediate is a no-op (or redundant with a
// plain mov), so no minimal sequence contains it.
func immIdentity(op ebpf.ALUOp, imm int32) bool {
	switch op {
	case ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUOr, ebpf.ALUXor,
		ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh:
		return imm == 0
	case ebpf.ALUMul:
		return imm == 1 || imm == 0
	case ebpf.ALUAnd:
		return imm == -1 || imm == 0
	}
	return false
}
