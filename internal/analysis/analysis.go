// Package analysis provides the bytecode-level static analyses backing
// Merlin's bytecode refinement tier: control-flow graphs, register
// def/use effects, liveness, and constant reaching — the "dependency
// analysis" (Dep) whose cost Fig 13a reports separately.
package analysis

import (
	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

// RegMask is a bitset over the eleven eBPF registers.
type RegMask uint16

// Has reports whether r is in the mask.
func (m RegMask) Has(r ebpf.Register) bool { return m&(1<<r) != 0 }

// With returns the mask including r.
func (m RegMask) With(r ebpf.Register) RegMask { return m | 1<<r }

// Without returns the mask excluding r.
func (m RegMask) Without(r ebpf.Register) RegMask { return m &^ (1 << r) }

// Effects describes an instruction's register reads and writes.
// Clobbers are writes with undefined content (helper calls).
type Effects struct {
	Uses RegMask
	Defs RegMask
}

// InsnEffects computes the register effects of one instruction.
func InsnEffects(ins ebpf.Instruction) Effects {
	var e Effects
	switch ins.Class() {
	case ebpf.ClassALU, ebpf.ClassALU64:
		op := ins.ALUOpField()
		if op != ebpf.ALUMov {
			e.Uses = e.Uses.With(ins.Dst)
		}
		if ins.SourceField() == ebpf.SourceX && op != ebpf.ALUNeg && op != ebpf.ALUEnd {
			e.Uses = e.Uses.With(ins.Src)
		}
		if op == ebpf.ALUNeg || op == ebpf.ALUEnd {
			e.Uses = e.Uses.With(ins.Dst)
		}
		e.Defs = e.Defs.With(ins.Dst)
	case ebpf.ClassLD:
		if ins.IsWide() {
			e.Defs = e.Defs.With(ins.Dst)
		}
	case ebpf.ClassLDX:
		e.Uses = e.Uses.With(ins.Src)
		e.Defs = e.Defs.With(ins.Dst)
	case ebpf.ClassST:
		e.Uses = e.Uses.With(ins.Dst)
	case ebpf.ClassSTX:
		e.Uses = e.Uses.With(ins.Dst).With(ins.Src)
	case ebpf.ClassJMP, ebpf.ClassJMP32:
		switch ins.JumpOpField() {
		case ebpf.JumpExit:
			e.Uses = e.Uses.With(ebpf.R0)
		case ebpf.JumpCall:
			argc := 5
			if spec, ok := helpers.Table[int(ins.Imm)]; ok {
				argc = len(spec.Args)
			}
			for i := 0; i < argc; i++ {
				e.Uses = e.Uses.With(ebpf.R1 + ebpf.Register(i))
			}
			// Calls clobber r0-r5.
			for r := ebpf.R0; r <= ebpf.R5; r++ {
				e.Defs = e.Defs.With(r)
			}
		case ebpf.JumpAlways:
		default:
			e.Uses = e.Uses.With(ins.Dst)
			if ins.SourceField() == ebpf.SourceX {
				e.Uses = e.Uses.With(ins.Src)
			}
		}
	}
	return e
}

// CFG is a basic-block decomposition of a program.
type CFG struct {
	Prog *ebpf.Program
	// Leader[i] is true when element i starts a basic block.
	Leader []bool
	// BlockOf[i] is the block index of element i.
	BlockOf []int
	// Blocks lists [start, end) element ranges.
	Blocks [][2]int
	// Succs lists successor block indices per block.
	Succs [][]int
	// Preds lists predecessor block indices per block.
	Preds [][]int
	// Target[i] is the element index a branch at i jumps to, or -1.
	Target []int
}

// BuildCFG decomposes prog into basic blocks. It returns an error for
// malformed branch targets.
func BuildCFG(prog *ebpf.Program) (*CFG, error) {
	n := len(prog.Insns)
	targets, err := prog.Targets()
	if err != nil {
		return nil, err
	}
	cfg := &CFG{
		Prog:    prog,
		Leader:  make([]bool, n),
		BlockOf: make([]int, n),
		Target:  targets,
	}
	if n == 0 {
		return cfg, nil
	}
	cfg.Leader[0] = true
	for i, ins := range prog.Insns {
		if t := cfg.Target[i]; t >= 0 {
			if t < n {
				cfg.Leader[t] = true
			}
			if i+1 < n {
				cfg.Leader[i+1] = true
			}
		}
		if ins.IsExit() && i+1 < n {
			cfg.Leader[i+1] = true
		}
	}
	for i := 0; i < n; i++ {
		if cfg.Leader[i] {
			cfg.Blocks = append(cfg.Blocks, [2]int{i, i + 1})
		} else {
			cfg.Blocks[len(cfg.Blocks)-1][1] = i + 1
		}
		cfg.BlockOf[i] = len(cfg.Blocks) - 1
	}
	cfg.Succs = make([][]int, len(cfg.Blocks))
	cfg.Preds = make([][]int, len(cfg.Blocks))
	addEdge := func(from, to int) {
		cfg.Succs[from] = append(cfg.Succs[from], to)
		cfg.Preds[to] = append(cfg.Preds[to], from)
	}
	for bi, blk := range cfg.Blocks {
		last := prog.Insns[blk[1]-1]
		lastIdx := blk[1] - 1
		switch {
		case last.IsExit():
		case last.IsUncondJump():
			addEdge(bi, cfg.BlockOf[cfg.Target[lastIdx]])
		case last.IsCondJump():
			addEdge(bi, cfg.BlockOf[cfg.Target[lastIdx]])
			if blk[1] < n {
				addEdge(bi, cfg.BlockOf[blk[1]])
			}
		default:
			if blk[1] < n {
				addEdge(bi, cfg.BlockOf[blk[1]])
			}
		}
	}
	return cfg, nil
}

// Liveness computes, for every element index, the set of registers live
// immediately after the instruction executes (live-out).
func Liveness(cfg *CFG) []RegMask {
	n := len(cfg.Prog.Insns)
	liveOut := make([]RegMask, n)
	blockIn := make([]RegMask, len(cfg.Blocks))
	// R10 is the frame pointer: always live so nothing "defines" it away.
	const always = RegMask(1 << ebpf.R10)

	changed := true
	for changed {
		changed = false
		for bi := len(cfg.Blocks) - 1; bi >= 0; bi-- {
			blk := cfg.Blocks[bi]
			out := always
			for _, s := range cfg.Succs[bi] {
				out |= blockIn[s]
			}
			// Walk the block backwards.
			for i := blk[1] - 1; i >= blk[0]; i-- {
				liveOut[i] = out
				e := InsnEffects(cfg.Prog.Insns[i])
				out = (out &^ e.Defs) | e.Uses | always
			}
			if out != blockIn[bi] {
				blockIn[bi] = out
				changed = true
			}
		}
	}
	return liveOut
}

// ConstVal is a constant-propagation lattice value.
type ConstVal struct {
	Known bool
	Val   int64
}

// RegConsts is the per-point register constant environment.
type RegConsts [ebpf.NumRegisters]ConstVal

func (rc *RegConsts) clear(r ebpf.Register) { rc[r] = ConstVal{} }

func meet(a, b RegConsts) RegConsts {
	var out RegConsts
	for i := range out {
		if a[i].Known && b[i].Known && a[i].Val == b[i].Val {
			out[i] = a[i]
		}
	}
	return out
}

// Constants computes, for every element index, the register constant
// environment immediately BEFORE the instruction executes.
func Constants(cfg *CFG) []RegConsts {
	n := len(cfg.Prog.Insns)
	before := make([]RegConsts, n)
	blockOut := make([]RegConsts, len(cfg.Blocks))
	blockSeen := make([]bool, len(cfg.Blocks))

	transfer := func(rc RegConsts, ins ebpf.Instruction) RegConsts {
		switch ins.Class() {
		case ebpf.ClassALU64, ebpf.ClassALU:
			op := ins.ALUOpField()
			src := ConstVal{Known: true, Val: int64(ins.Imm)}
			if ins.SourceField() == ebpf.SourceX && op != ebpf.ALUEnd {
				src = rc[ins.Src]
			}
			// mov does not read its destination. An op the ISA does not
			// define faults in the VM: its destination is never a constant.
			dst := rc[ins.Dst]
			v, ok := ebpf.EvalALU(op, ins.Class() == ebpf.ClassALU, uint64(dst.Val), uint64(src.Val))
			if ok && src.Known && (dst.Known || op == ebpf.ALUMov) {
				rc[ins.Dst] = ConstVal{Known: true, Val: int64(v)}
			} else {
				rc.clear(ins.Dst)
			}
		case ebpf.ClassLD:
			if ins.IsWide() {
				if ins.IsMapLoad() {
					rc.clear(ins.Dst)
				} else {
					rc[ins.Dst] = ConstVal{Known: true, Val: ins.Imm64}
				}
			}
		case ebpf.ClassLDX:
			rc.clear(ins.Dst)
		case ebpf.ClassJMP, ebpf.ClassJMP32:
			if ins.JumpOpField() == ebpf.JumpCall {
				for r := ebpf.R0; r <= ebpf.R5; r++ {
					rc.clear(r)
				}
			}
		}
		return rc
	}

	// Iterate to fixpoint over blocks in layout order.
	changed := true
	for changed {
		changed = false
		for bi, blk := range cfg.Blocks {
			var in RegConsts
			first := true
			for _, p := range cfg.Preds[bi] {
				if !blockSeen[p] {
					continue
				}
				if first {
					in = blockOut[p]
					first = false
				} else {
					in = meet(in, blockOut[p])
				}
			}
			if bi == 0 {
				in = RegConsts{}
				first = false
			}
			if first {
				// No processed predecessors yet: assume nothing.
				in = RegConsts{}
			}
			rc := in
			for i := blk[0]; i < blk[1]; i++ {
				before[i] = rc
				rc = transfer(rc, cfg.Prog.Insns[i])
			}
			if !blockSeen[bi] || rc != blockOut[bi] {
				blockOut[bi] = rc
				blockSeen[bi] = true
				changed = true
			}
		}
	}
	return before
}
