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
	for {
		n, next, err := cpRound(cur)
		if err != nil {
			return nil, 0, err
		}
		cur = next
		f, next2, err := foldBranchesRound(cur)
		if err != nil {
			return nil, 0, err
		}
		cur = next2
		u, next3, err := unreachableRound(cur)
		if err != nil {
			return nil, 0, err
		}
		cur = next3
		d, next4, err := dceRound(cur)
		if err != nil {
			return nil, 0, err
		}
		cur = next4
		applied += n + f + u + d
		if n+f+u+d == 0 {
			return cur, applied, nil
		}
	}
}

// foldBranchesRound resolves conditional branches whose outcome constant
// propagation proves: always-taken branches become unconditional jumps,
// never-taken branches are deleted.
func foldBranchesRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		return 0, nil, err
	}
	consts := analysis.Constants(cfg)
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return 0, nil, err
	}
	applied := 0
	var deletions []int
	for i, ins := range ed.Insns {
		if !ins.IsCondJump() {
			continue
		}
		rc := consts[i]
		a := rc[ins.Dst]
		if !a.Known {
			continue
		}
		var b analysis.ConstVal
		if ins.SourceField() == ebpf.SourceX {
			b = rc[ins.Src]
		} else {
			b = analysis.ConstVal{Known: true, Val: int64(ins.Imm)}
		}
		if !b.Known {
			continue
		}
		taken, ok := ebpf.EvalJump(ins.JumpOpField(), ins.Class() == ebpf.ClassJMP32, uint64(a.Val), uint64(b.Val))
		if !ok {
			continue
		}
		if taken {
			tgt := ed.Target[i]
			ed.Replace(i, ebpf.Jump(0))
			ed.SetTarget(i, tgt)
		} else {
			deletions = append(deletions, i)
		}
		applied++
	}
	for k := len(deletions) - 1; k >= 0; k-- {
		ed.Delete(deletions[k])
	}
	if applied == 0 {
		return 0, prog, nil
	}
	out, err := ed.Finalize()
	return applied, out, err
}

// unreachableRound removes instructions no path from the entry reaches
// (produced by branch folding). The kernel rejects unreachable code, so the
// refined program must not contain any.
func unreachableRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return 0, nil, err
	}
	n := len(ed.Insns)
	seen := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		if t := ed.Target[i]; t >= 0 {
			stack = append(stack, t)
		}
		if !ed.Insns[i].Terminates() {
			stack = append(stack, i+1)
		}
	}
	applied := 0
	for i := n - 1; i >= 0; i-- {
		if !seen[i] {
			ed.Delete(i)
			applied++
		}
	}
	if applied == 0 {
		return 0, prog, nil
	}
	out, err := ed.Finalize()
	return applied, out, err
}

// cpRound rewrites instructions whose register operands are known constants.
func cpRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		return 0, nil, err
	}
	consts := analysis.Constants(cfg)
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return 0, nil, err
	}
	applied := 0
	for i, ins := range ed.Insns {
		rc := consts[i]
		switch {
		case ins.Class() == ebpf.ClassSTX && ins.ModeField() == ebpf.ModeMEM:
			// stx [dst+off], src with src == const → st [dst+off], imm
			cv := rc[ins.Src]
			if !cv.Known {
				continue
			}
			if !immFitsStore(ins.SizeField(), cv.Val) {
				continue
			}
			ed.Replace(i, ebpf.StoreImm(ins.SizeField(), ins.Dst, ins.Offset, int32(cv.Val)))
			applied++
		case ins.Class().IsALU() && ins.SourceField() == ebpf.SourceX && ins.ALUOpField() != ebpf.ALUMov:
			// alu dst, src with src == const → alu dst, imm
			cv := rc[ins.Src]
			if !cv.Known || !fitsInt32(cv.Val) {
				continue
			}
			repl := ins
			repl.Opcode = (ins.Opcode &^ uint8(ebpf.SourceX))
			repl.Src = 0
			repl.Imm = int32(cv.Val)
			ed.Replace(i, repl)
			applied++
		case ins.IsCondJump() && ins.SourceField() == ebpf.SourceX:
			cv := rc[ins.Src]
			if !cv.Known || !fitsInt32(cv.Val) {
				continue
			}
			repl := ins
			repl.Opcode = (ins.Opcode &^ uint8(ebpf.SourceX))
			repl.Src = 0
			repl.Imm = int32(cv.Val)
			ed.Replace(i, repl)
			ed.SetTarget(i, ed.Target[i])
			applied++
		}
	}
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
func dceRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		return 0, nil, err
	}
	liveOut := analysis.Liveness(cfg)
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return 0, nil, err
	}
	var victims []int
	for i, ins := range ed.Insns {
		if !removableDef(ins) {
			continue
		}
		if !liveOut[i].Has(ins.Dst) {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		return 0, prog, nil
	}
	for k := len(victims) - 1; k >= 0; k-- {
		ed.Delete(victims[k])
	}
	out, err := ed.Finalize()
	return len(victims), out, err
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
