package bopt

import (
	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// CPDCE is Optimization 1 (Fig 4): constant propagation turns
// register-indirect constant stores into store-immediate instructions and
// register ALU operands into immediates; dead code elimination then removes
// definitions whose results are never observed — most prominently the mov
// that fed the rewritten store.
func CPDCE(prog *ebpf.Program, opts Options) (*ebpf.Program, int, error) {
	applied := 0
	cur := prog
	var f facts
	for {
		round := 0
		for _, r := range [...]func(*facts, *ebpf.Program) (int, *ebpf.Program, error){
			cpRound, foldBranchesRound, unreachableRound, dceRound,
		} {
			n, next, err := r(&f, cur)
			if err != nil {
				return nil, 0, err
			}
			cur = next
			round += n
		}
		applied += round
		if round == 0 {
			return cur, applied, nil
		}
	}
}

// facts holds the analyses of one program version. A round that changes
// nothing hands back the program it was given, and the next round reuses
// what was computed for that version instead of rebuilding it.
type facts struct {
	prog   *ebpf.Program
	cfg    *analysis.CFG
	consts *analysis.Consts
	live   []analysis.RegMask
}

// of points f at prog, building its CFG unless f already describes it.
func (f *facts) of(prog *ebpf.Program) error {
	if f.prog == prog {
		return nil
	}
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		return err
	}
	*f = facts{prog: prog, cfg: cfg}
	return nil
}

func (f *facts) constants() *analysis.Consts {
	if f.consts == nil {
		f.consts = analysis.Constants(f.cfg)
	}
	return f.consts
}

func (f *facts) liveness() []analysis.RegMask {
	if f.live == nil {
		f.live = analysis.Liveness(f.cfg)
	}
	return f.live
}

// foldBranchesRound resolves conditional branches whose outcome constant
// propagation proves: always-taken branches become unconditional jumps,
// never-taken branches are deleted.
func foldBranchesRound(f *facts, prog *ebpf.Program) (int, *ebpf.Program, error) {
	if err := f.of(prog); err != nil {
		return 0, nil, err
	}
	var ed *ebpf.Editable
	var dead []bool
	applied := 0
	f.constants().Walk(func(i int, rc *analysis.RegConsts) {
		ins := prog.Insns[i]
		if !ins.IsCondJump() {
			return
		}
		a := rc[ins.Dst]
		if !a.Known {
			return
		}
		var b analysis.ConstVal
		if ins.SourceField() == ebpf.SourceX {
			b = rc[ins.Src]
		} else {
			b = analysis.ConstVal{Known: true, Val: int64(ins.Imm)}
		}
		if !b.Known {
			return
		}
		taken, ok := ebpf.EvalJump(ins.JumpOpField(), ins.Class() == ebpf.ClassJMP32, uint64(a.Val), uint64(b.Val))
		if !ok {
			return
		}
		if ed == nil {
			ed = ebpf.EditableOf(prog, f.cfg.Target)
			dead = make([]bool, len(prog.Insns))
		}
		if taken {
			tgt := ed.Target[i]
			ed.Replace(i, ebpf.Jump(0))
			ed.SetTarget(i, tgt)
		} else {
			dead[i] = true
		}
		applied++
	})
	if applied == 0 {
		return 0, prog, nil
	}
	ed.Sweep(dead)
	out, err := ed.Finalize()
	return applied, out, err
}

// unreachableRound removes instructions no path from the entry reaches
// (produced by branch folding). The kernel rejects unreachable code, so the
// refined program must not contain any.
func unreachableRound(f *facts, prog *ebpf.Program) (int, *ebpf.Program, error) {
	if err := f.of(prog); err != nil {
		return 0, nil, err
	}
	target := f.cfg.Target
	n := len(prog.Insns)
	seen := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		if t := target[i]; t >= 0 {
			stack = append(stack, t)
		}
		if !prog.Insns[i].Terminates() {
			stack = append(stack, i+1)
		}
	}
	dead := make([]bool, n)
	applied := 0
	for i := range seen {
		if !seen[i] {
			dead[i] = true
			applied++
		}
	}
	if applied == 0 {
		return 0, prog, nil
	}
	out, err := sweep(prog, target, dead)
	return applied, out, err
}

// cpRound rewrites instructions whose register operands are known constants.
func cpRound(f *facts, prog *ebpf.Program) (int, *ebpf.Program, error) {
	if err := f.of(prog); err != nil {
		return 0, nil, err
	}
	var ed *ebpf.Editable
	replace := func(i int, ins ebpf.Instruction) {
		if ed == nil {
			ed = ebpf.EditableOf(prog, f.cfg.Target)
		}
		ed.Replace(i, ins)
	}
	applied := 0
	f.constants().Walk(func(i int, rc *analysis.RegConsts) {
		ins := prog.Insns[i]
		switch {
		case ins.Class() == ebpf.ClassSTX && ins.ModeField() == ebpf.ModeMEM:
			// stx [dst+off], src with src == const → st [dst+off], imm
			cv := rc[ins.Src]
			if !cv.Known || !immFitsStore(ins.SizeField(), cv.Val) {
				return
			}
			replace(i, ebpf.StoreImm(ins.SizeField(), ins.Dst, ins.Offset, int32(cv.Val)))
			applied++
		case ins.Class().IsALU() && ins.SourceField() == ebpf.SourceX && ins.ALUOpField() != ebpf.ALUMov:
			// alu dst, src with src == const → alu dst, imm
			cv := rc[ins.Src]
			if !cv.Known || !fitsInt32(cv.Val) {
				return
			}
			repl := ins
			repl.Opcode = (ins.Opcode &^ uint8(ebpf.SourceX))
			repl.Src = 0
			repl.Imm = int32(cv.Val)
			replace(i, repl)
			applied++
		case ins.IsCondJump() && ins.SourceField() == ebpf.SourceX:
			// The replacement is a branch too, so it keeps its target.
			cv := rc[ins.Src]
			if !cv.Known || !fitsInt32(cv.Val) {
				return
			}
			repl := ins
			repl.Opcode = (ins.Opcode &^ uint8(ebpf.SourceX))
			repl.Src = 0
			repl.Imm = int32(cv.Val)
			replace(i, repl)
			applied++
		}
	})
	if applied == 0 {
		return 0, prog, nil
	}
	out, err := ed.Finalize()
	return applied, out, err
}

// immFitsStore reports whether val can be encoded as the imm of a st.<size>:
// the store writes the low size bytes of the sign-extended imm32, so the
// encoding is exact when the truncated bits match.
func immFitsStore(size ebpf.Size, val int64) bool {
	switch size {
	case ebpf.SizeB:
		return true
	case ebpf.SizeH:
		return true
	case ebpf.SizeW:
		return true
	default: // SizeDW: st.dw stores signext(imm32); need exact value
		return fitsInt32(val)
	}
}

func fitsInt32(v int64) bool { return v >= -0x80000000 && v <= 0x7fffffff }

// dceRound removes side-effect-free definitions of dead registers.
func dceRound(f *facts, prog *ebpf.Program) (int, *ebpf.Program, error) {
	if err := f.of(prog); err != nil {
		return 0, nil, err
	}
	liveOut := f.liveness()
	var dead []bool
	applied := 0
	for i, ins := range prog.Insns {
		if removableDef(ins) && !liveOut[i].Has(ins.Dst) {
			if dead == nil {
				dead = make([]bool, len(prog.Insns))
			}
			dead[i] = true
			applied++
		}
	}
	if applied == 0 {
		return 0, prog, nil
	}
	out, err := sweep(prog, f.cfg.Target, dead)
	return applied, out, err
}

// removableDef reports whether ins only produces a register value (no
// memory writes, no control flow, no helper side effects). Loads are
// removable: eBPF loads are side-effect-free and verifier-checked.
func removableDef(ins ebpf.Instruction) bool {
	switch ins.Class() {
	case ebpf.ClassALU, ebpf.ClassALU64:
		return true
	case ebpf.ClassLD:
		return ins.IsWide()
	case ebpf.ClassLDX:
		return ins.ModeField() == ebpf.ModeMEM
	}
	return false
}
