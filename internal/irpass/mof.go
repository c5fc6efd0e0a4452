package irpass

import "merlin/internal/ir"

// MacroOpFusion is Optimization 4 (§4.1): it fuses a read-modify-write
// triple — load from p, a single add/and/or/xor of the loaded value, store
// of the result back to p — into one atomicrmw instruction, which codegen
// emits as a single locked xadd-family instruction (Fig 7). The rewrite
// requires:
//
//   - the load's only use is the operation, the operation's only use is the
//     store, and the store writes through the very same pointer value;
//   - load, op and store sit in the same block with no intervening
//     instruction that may write memory (store, call, atomicrmw);
//   - the access is naturally aligned and 4 or 8 bytes wide, since eBPF
//     atomics exist only at those widths.
func MacroOpFusion(f *ir.Function) int {
	applied := 0
	uses := useCounts(f)
	for _, b := range f.Blocks {
		applied += fuseBlock(b, uses)
	}
	return applied
}

// fuseBlock fuses every triple in b. uses is the whole function's use counts,
// kept correct across each fusion.
func fuseBlock(b *ir.Block, uses map[*ir.Instr]int) int {
	applied := 0
	for {
		fused := false
		for si, st := range b.Instrs {
			if st.Op != ir.OpStore {
				continue
			}
			op, ok := st.Args[1].(*ir.Instr)
			if !ok || op.Op != ir.OpBin || uses[op] != 1 || op.Parent != b {
				continue
			}
			switch op.Bin {
			case ir.Add, ir.And, ir.Or, ir.Xor:
			default:
				continue
			}
			ld, other := rmwOperands(op)
			if ld == nil || uses[ld] != 1 || ld.Parent != b {
				continue
			}
			if ld.Args[0] != st.Args[0] {
				continue // different pointer values
			}
			width := ld.Ty.Bytes()
			if width != 4 && width != 8 {
				continue
			}
			if op.Ty.Bytes() != width || valueWidth(other) > width {
				continue
			}
			if ld.Align < width || st.Align < width {
				continue // atomics need natural alignment
			}
			li := indexOf(b, ld)
			oi := indexOf(b, op)
			if li < 0 || oi < 0 || !(li < oi && oi < si) {
				continue
			}
			if memWriteBetween(b, li, si, ld, op, st) {
				continue
			}
			// Rewrite: drop load+op+store, insert atomicrmw where the store was.
			rmw := &ir.Instr{
				Op: ir.OpAtomicRMW, Bin: op.Bin, Ty: ld.Ty, Align: width,
				Args: []ir.Value{st.Args[0], other},
			}
			b.Instrs[si] = rmw
			rmw.Parent = b
			removeInstr(op)
			removeInstr(ld)
			// The store's two uses passed to rmw; the load's use of the
			// pointer is gone, and so are the load and the op.
			if p, ok := ld.Args[0].(*ir.Instr); ok {
				uses[p]--
			}
			delete(uses, op)
			delete(uses, ld)
			applied++
			fused = true
			break // indices shifted; rescan the block
		}
		if !fused {
			return applied
		}
	}
}

// rmwOperands splits a candidate bin's operands into (the load of the target
// address, the other operand). For non-commutative layouts only load-first
// order is accepted for Sub-like ops, but all fusible ops are commutative.
func rmwOperands(op *ir.Instr) (*ir.Instr, ir.Value) {
	if ld, ok := op.Args[0].(*ir.Instr); ok && ld.Op == ir.OpLoad {
		return ld, op.Args[1]
	}
	if ld, ok := op.Args[1].(*ir.Instr); ok && ld.Op == ir.OpLoad {
		return ld, op.Args[0]
	}
	return nil, nil
}

func valueWidth(v ir.Value) int {
	if _, ok := v.(*ir.Const); ok {
		return 0 // immediates adapt to the access width
	}
	return v.Type().Bytes()
}

func indexOf(b *ir.Block, in *ir.Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// memWriteBetween reports whether any instruction strictly between positions
// lo and hi may write memory, other than the triple being fused.
func memWriteBetween(b *ir.Block, lo, hi int, skip ...*ir.Instr) bool {
	isSkip := func(in *ir.Instr) bool {
		for _, s := range skip {
			if in == s {
				return true
			}
		}
		return false
	}
	for i := lo + 1; i < hi; i++ {
		in := b.Instrs[i]
		if isSkip(in) {
			continue
		}
		switch in.Op {
		case ir.OpStore, ir.OpCall, ir.OpAtomicRMW:
			return true
		}
	}
	return false
}
