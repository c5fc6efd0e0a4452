package bopt

import (
	"merlin/internal/ebpf"
)

// SLM is Optimization 2 (Fig 5): superword-level merging. Two adjacent
// store-immediate instructions writing consecutive memory through the same
// base register merge into one store of twice the width, when the combined
// immediate is encodable. Merges cascade (u8+u8 → u16, u16+u16 → u32,
// u32+u32 → u64) until a fixpoint.
func SLM(prog *ebpf.Program, opts Options) (*ebpf.Program, int, error) {
	applied := 0
	cur := prog
	for {
		n, next, err := slmRound(cur)
		if err != nil {
			return nil, 0, err
		}
		cur = next
		applied += n
		if n == 0 {
			return cur, applied, nil
		}
	}
}

func slmRound(prog *ebpf.Program) (int, *ebpf.Program, error) {
	resolved, targets, err := branchTargets(prog)
	if err != nil {
		return 0, nil, err
	}
	insns := prog.Insns
	// Collect merge pairs left to right, skipping overlaps.
	i := 0
	var merges []int // the first store of each pair
	for i+1 < len(insns) {
		if targets[i+1] {
			i++
			continue // control can land between the two stores
		}
		a, b := insns[i], insns[i+1]
		if ok := mergeableStores(a, b); ok {
			merges = append(merges, i)
			i += 2
			continue
		}
		i++
	}
	if len(merges) == 0 {
		return 0, prog, nil
	}
	ed := ebpf.EditableOf(prog, resolved)
	dead := make([]bool, len(insns))
	for _, at := range merges {
		// mergeableStores has proven the pair merges.
		merged, _ := mergeStores(orderByOffset(insns[at], insns[at+1]))
		ed.Replace(at, merged)
		dead[at+1] = true
	}
	ed.Sweep(dead)
	out, err := ed.Finalize()
	return len(merges), out, err
}

// mergeableStores reports whether a and b are same-width store-immediates
// through the same base covering adjacent memory.
func mergeableStores(a, b ebpf.Instruction) bool {
	if a.Class() != ebpf.ClassST || b.Class() != ebpf.ClassST {
		return false
	}
	if a.ModeField() != ebpf.ModeMEM || b.ModeField() != ebpf.ModeMEM {
		return false
	}
	if a.Dst != b.Dst || a.SizeField() != b.SizeField() {
		return false
	}
	w := a.SizeField().Bytes()
	if w == 8 {
		return false // cannot widen past u64
	}
	lo, hi := orderByOffset(a, b)
	if int(hi.Offset)-int(lo.Offset) != w {
		return false
	}
	// Result must be naturally aligned at the doubled width.
	if int(lo.Offset)%(2*w) != 0 {
		return false
	}
	_, ok := mergeStores(lo, hi)
	return ok
}

func orderByOffset(a, b ebpf.Instruction) (lo, hi ebpf.Instruction) {
	if a.Offset <= b.Offset {
		return a, b
	}
	return b, a
}

// mergeStores combines two adjacent stores into one of twice the width.
// Little-endian: the lower-address store supplies the low bits.
func mergeStores(lo, hi ebpf.Instruction) (ebpf.Instruction, bool) {
	w := lo.SizeField().Bytes()
	mask := uint64(1)<<(uint(w)*8) - 1
	combined := (uint64(hi.Imm)&mask)<<(uint(w)*8) | (uint64(lo.Imm) & mask)
	// st stores signext(imm32) truncated to the access width; the combined
	// value must survive that encoding.
	var ok bool
	switch w {
	case 1, 2:
		ok = true // 16/32-bit results always encodable in imm32
	case 4:
		ok = int64(combined) == int64(int32(uint32(combined)))
	}
	if !ok {
		return ebpf.Instruction{}, false
	}
	newSize, _ := ebpf.SizeForBytes(2 * w)
	return ebpf.StoreImm(newSize, lo.Dst, lo.Offset, int32(combined)), true
}
