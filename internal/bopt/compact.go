package bopt

import (
	"merlin/internal/ebpf"
)

// Compact is Optimization 5 (Fig 8): code compaction with instructions the
// compiler would not emit. The shl-32/shr-32 zero-extension pair becomes a
// single 32-bit movl, and a mov feeding straight into such a pair collapses
// to movl dst, src. Requires an ALU32-capable target verifier.
func Compact(prog *ebpf.Program, opts Options) (*ebpf.Program, int, error) {
	if !opts.ALU32 {
		return prog, 0, nil
	}
	resolved, targets, err := branchTargets(prog)
	if err != nil {
		return nil, 0, err
	}
	insns := prog.Insns
	// Collect non-overlapping matches left to right.
	type match struct {
		start int // element index of the first instruction of the pattern
		movIn bool
	}
	var matches []match
	for i := 0; i+1 < len(insns); i++ {
		a, b := insns[i], insns[i+1]
		if !(isShl32(a) && isShr32(b) && a.Dst == b.Dst) || targets[i+1] {
			continue
		}
		// A mov feeding the pair joins the match. It can never overlap a
		// previous match: matches end in a shr, which is not a mov.
		if i > 0 && !targets[i] && isMov64(insns[i-1]) && insns[i-1].Dst == a.Dst {
			matches = append(matches, match{start: i - 1, movIn: true})
			i++ // consume the pair
			continue
		}
		matches = append(matches, match{start: i})
		i++
	}
	if len(matches) == 0 {
		return prog, 0, nil
	}
	ed := ebpf.EditableOf(prog, resolved)
	dead := make([]bool, len(insns))
	for _, m := range matches {
		if m.movIn {
			mov := insns[m.start]
			ed.Replace(m.start, ebpf.Mov32Reg(mov.Dst, mov.Src))
			dead[m.start+1], dead[m.start+2] = true, true
		} else {
			r := insns[m.start].Dst
			ed.Replace(m.start, ebpf.Mov32Reg(r, r))
			dead[m.start+1] = true
		}
	}
	ed.Sweep(dead)
	out, err := ed.Finalize()
	return out, len(matches), err
}

func isShl32(ins ebpf.Instruction) bool {
	return ins.Class() == ebpf.ClassALU64 && ins.ALUOpField() == ebpf.ALULsh &&
		ins.SourceField() == ebpf.SourceK && ins.Imm == 32
}

func isShr32(ins ebpf.Instruction) bool {
	return ins.Class() == ebpf.ClassALU64 && ins.ALUOpField() == ebpf.ALURsh &&
		ins.SourceField() == ebpf.SourceK && ins.Imm == 32
}

func isMov64(ins ebpf.Instruction) bool {
	return ins.Class() == ebpf.ClassALU64 && ins.ALUOpField() == ebpf.ALUMov &&
		ins.SourceField() == ebpf.SourceX
}
