package bopt

import (
	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// Peephole is Optimization 6 (Fig 9): local rewrites that are obvious in
// bytecode but awkward at the IR level.
//
//   - lddw rM, mask; and rD, rM; shr rD, k — where mask keeps the 32-bit
//     bits k..31 and rM is dead afterwards — becomes shl rD, 32;
//     shr rD, 32+k, saving two slots and freeing a register.
//   - algebraic identities: self-moves and no-op ALU immediates
//     (±0 shifts/adds, or/xor 0, mul/div by 1) are deleted.
func Peephole(prog *ebpf.Program, opts Options) (*ebpf.Program, int, error) {
	applied := 0
	cur := prog
	for {
		n, next, err := maskShiftRound(cur)
		if err != nil {
			return nil, 0, err
		}
		m, next2, err := identityRound(next)
		if err != nil {
			return nil, 0, err
		}
		cur = next2
		applied += n + m
		if n+m == 0 {
			return cur, applied, nil
		}
	}
}

// maskShiftRound rewrites the lddw-mask/and/shr triple.
func maskShiftRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		return 0, nil, err
	}
	liveOut := analysis.Liveness(cfg)
	targets := landings(cfg.Target)
	insns := prog.Insns
	type match struct {
		at int
		k  int32
	}
	var matches []match
	for i := 0; i+2 < len(insns); i++ {
		ld, and, shr := insns[i], insns[i+1], insns[i+2]
		if !ld.IsWide() || ld.IsMapLoad() || targets[i+1] || targets[i+2] {
			continue
		}
		if !(and.Class() == ebpf.ClassALU64 && and.ALUOpField() == ebpf.ALUAnd &&
			and.SourceField() == ebpf.SourceX && and.Src == ld.Dst) {
			continue
		}
		if !(shr.Class() == ebpf.ClassALU64 && shr.ALUOpField() == ebpf.ALURsh &&
			shr.SourceField() == ebpf.SourceK && shr.Dst == and.Dst) {
			continue
		}
		k := shr.Imm
		if k <= 0 || k >= 32 {
			continue
		}
		wantMask := (uint64(0xffffffff) >> uint(k)) << uint(k)
		if uint64(ld.Imm64) != wantMask {
			continue
		}
		// The mask register must die at the and.
		if liveOut[i+1].Has(ld.Dst) {
			continue
		}
		matches = append(matches, match{at: i, k: k})
		i += 2
	}
	if len(matches) == 0 {
		return 0, prog, nil
	}
	ed := ebpf.EditableOf(prog, cfg.Target)
	dead := make([]bool, len(insns))
	for _, m := range matches {
		rd := insns[m.at+1].Dst
		ed.Replace(m.at, ebpf.ALU64Imm(ebpf.ALULsh, rd, 32))
		ed.Replace(m.at+1, ebpf.ALU64Imm(ebpf.ALURsh, rd, 32+m.k))
		dead[m.at+2] = true
	}
	ed.Sweep(dead)
	out, err := ed.Finalize()
	return len(matches), out, err
}

// identityRound removes no-op instructions.
func identityRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	var dead []bool
	applied := 0
	for i, ins := range prog.Insns {
		if isNoop(ins) {
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
	targets, err := prog.Targets()
	if err != nil {
		return 0, nil, err
	}
	out, err := sweep(prog, targets, dead)
	return applied, out, err
}

// isNoop reports whether ins provably changes nothing. Note that 32-bit
// self-moves are NOT no-ops (they zero the upper half).
func isNoop(ins ebpf.Instruction) bool {
	if ins.Class() != ebpf.ClassALU64 {
		return false
	}
	op := ins.ALUOpField()
	if ins.SourceField() == ebpf.SourceX {
		return op == ebpf.ALUMov && ins.Dst == ins.Src
	}
	switch op {
	case ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUOr, ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh:
		return ins.Imm == 0
	case ebpf.ALUMul, ebpf.ALUDiv:
		return ins.Imm == 1
	}
	return false
}
