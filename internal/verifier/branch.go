package verifier

import (
	"fmt"

	"merlin/internal/ebpf"
)

// condJump symbolically executes a conditional branch. It returns the
// fallthrough state, an optional taken-branch state to explore, or follows a
// single arm when the predicate is statically decidable.
func (v *checker) condJump(st *state, ins ebpf.Instruction) (*state, *state, bool, error) {
	a, err := v.regRead(st, ins.Dst)
	if err != nil {
		return nil, nil, false, err
	}
	var b RegState
	if ins.SourceField() == ebpf.SourceX {
		b, err = v.regRead(st, ins.Src)
		if err != nil {
			return nil, nil, false, err
		}
	} else {
		b = scalarConst(uint64(int64(ins.Imm)))
	}
	op := ins.JumpOpField()
	is32 := ins.Class() == ebpf.ClassJMP32
	if _, ok := ebpf.EvalJump(op, is32, 0, 0); !ok {
		return nil, nil, false, fmt.Errorf("unknown opcode %#02x", ins.Opcode)
	}

	tgt, ok := v.lay.ElemAt(v.lay.JumpSlot(st.pc, ins))
	if !ok {
		return nil, nil, false, fmt.Errorf("branch into the middle of an instruction")
	}

	// Classify operand combination.
	switch {
	case a.Type == Scalar && b.Type == Scalar:
		return v.scalarBranch(st, ins, a, b, op, is32, tgt)
	case a.Type == PtrToPacket && b.Type == PtrToPacketEnd,
		a.Type == PtrToPacketEnd && b.Type == PtrToPacket:
		return v.packetBranch(st, a, b, op, tgt)
	case a.Type == PtrToMapValueOrNull && b.Known() && b.UMin == 0 && (op == ebpf.JumpEq || op == ebpf.JumpNE):
		return v.nullBranch(st, a.ID, op, tgt)
	case isPointer(a.Type) && isPointer(b.Type) && a.Type == b.Type:
		// Same-type pointer comparison: explore both arms without
		// refinement (the kernel permits these for pkt pointers and we are
		// permissive for the rest).
		taken := st.clone()
		taken.pc = tgt
		st.pc++
		return st, taken, false, nil
	case a.Type == PtrToMapValue && b.Known() && b.UMin == 0:
		// A resolved map value pointer is never null: == 0 is always false.
		if op == ebpf.JumpEq {
			st.pc++
			return st, nil, false, nil
		}
		if op == ebpf.JumpNE {
			st.pc = tgt
			return st, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("invalid comparison of map_value with constant")
	}
	return nil, nil, false, fmt.Errorf("R%d pointer comparison prohibited (%s vs %s)", ins.Dst, a.Type, b.Type)
}

// nullBranch resolves an or-null pointer on both arms.
func (v *checker) nullBranch(st *state, id uint32, op ebpf.JumpOp, tgt int) (*state, *state, bool, error) {
	taken := st.clone()
	taken.pc = tgt
	st.pc++
	if op == ebpf.JumpEq {
		taken.setNullResolved(id, true) // == 0 taken: it is null
		st.setNullResolved(id, false)
	} else {
		taken.setNullResolved(id, false) // != 0 taken: not null
		st.setNullResolved(id, true)
	}
	return st, taken, false, nil
}

// packetBranch refines the proven packet length on bounds checks like
// "if data + N > data_end goto drop".
func (v *checker) packetBranch(st *state, a, b RegState, op ebpf.JumpOp, tgt int) (*state, *state, bool, error) {
	// Normalize to pkt OP end.
	pkt := a
	if a.Type == PtrToPacketEnd {
		pkt = b
		op = swapCmp(op)
	}
	if pkt.VarSpan != 0 {
		// Variable-offset pointer: no refinement, explore both.
		taken := st.clone()
		taken.pc = tgt
		st.pc++
		return st, taken, false, nil
	}
	n := pkt.Off // pkt+n compared against end
	taken := st.clone()
	taken.pc = tgt
	st.pc++
	fall := st
	switch op {
	case ebpf.JumpGT: // taken: pkt+n > end; fall: pkt+n <= end → n bytes ok
		if n > fall.pktSafe {
			fall.pktSafe = n
		}
	case ebpf.JumpGE: // fall: pkt+n < end → n bytes ok (conservative)
		if n > fall.pktSafe {
			fall.pktSafe = n
		}
	case ebpf.JumpLT: // taken: pkt+n < end → n ok
		if n > taken.pktSafe {
			taken.pktSafe = n
		}
	case ebpf.JumpLE: // taken: pkt+n <= end → n ok
		if n > taken.pktSafe {
			taken.pktSafe = n
		}
	}
	return fall, taken, false, nil
}

func swapCmp(op ebpf.JumpOp) ebpf.JumpOp {
	switch op {
	case ebpf.JumpGT:
		return ebpf.JumpLT
	case ebpf.JumpGE:
		return ebpf.JumpLE
	case ebpf.JumpLT:
		return ebpf.JumpGT
	case ebpf.JumpLE:
		return ebpf.JumpGE
	}
	return op
}

// scalarBranch decides or forks on a scalar comparison, refining unsigned
// ranges against constants.
func (v *checker) scalarBranch(st *state, ins ebpf.Instruction, a, b RegState, op ebpf.JumpOp, is32 bool, tgt int) (*state, *state, bool, error) {
	if is32 {
		a, b = trunc32(a), trunc32(b)
	}
	decided, always := decide(op, a, b)
	if decided {
		if always {
			st.pc = tgt
		} else {
			st.pc++
		}
		return st, nil, false, nil
	}
	taken := st.clone()
	taken.pc = tgt
	st.pc++
	// Range refinement only for 64-bit compares against known constants on
	// the dst side (the common bounds-check shape).
	if !is32 && b.Known() && ins.SourceField() == ebpf.SourceK {
		c := b.UMin
		rT := &taken.regs[ins.Dst]
		rF := &st.regs[ins.Dst]
		refine(rT, rF, op, c)
	}
	return st, taken, false, nil
}

// decide returns (true, outcome) when the comparison is statically known.
func decide(op ebpf.JumpOp, a, b RegState) (bool, bool) {
	switch op {
	case ebpf.JumpEq:
		if a.Known() && b.Known() {
			return true, a.UMin == b.UMin
		}
		if a.UMax < b.UMin || a.UMin > b.UMax {
			return true, false
		}
	case ebpf.JumpNE:
		if a.Known() && b.Known() {
			return true, a.UMin != b.UMin
		}
		if a.UMax < b.UMin || a.UMin > b.UMax {
			return true, true
		}
	case ebpf.JumpGT:
		if a.UMin > b.UMax {
			return true, true
		}
		if a.UMax <= b.UMin {
			return true, false
		}
	case ebpf.JumpGE:
		if a.UMin >= b.UMax {
			return true, true
		}
		if a.UMax < b.UMin {
			return true, false
		}
	case ebpf.JumpLT:
		if a.UMax < b.UMin {
			return true, true
		}
		if a.UMin >= b.UMax {
			return true, false
		}
	case ebpf.JumpLE:
		if a.UMax <= b.UMin {
			return true, true
		}
		if a.UMin > b.UMax {
			return true, false
		}
	case ebpf.JumpSet:
		if a.Known() && b.Known() {
			return true, a.UMin&b.UMin != 0
		}
	}
	return false, false
}

// refine narrows the unsigned range of the compared register on both arms.
func refine(taken, fall *RegState, op ebpf.JumpOp, c uint64) {
	clampMin := func(r *RegState, v uint64) {
		if r.Type == Scalar && v > r.UMin {
			r.UMin = v
		}
	}
	clampMax := func(r *RegState, v uint64) {
		if r.Type == Scalar && v < r.UMax {
			r.UMax = v
		}
	}
	switch op {
	case ebpf.JumpEq:
		if taken.Type == Scalar {
			*taken = scalarConst(c)
		}
	case ebpf.JumpNE:
		if fall.Type == Scalar {
			*fall = scalarConst(c)
		}
	case ebpf.JumpGT:
		if c < ^uint64(0) {
			clampMin(taken, c+1)
		}
		clampMax(fall, c)
	case ebpf.JumpGE:
		clampMin(taken, c)
		if c > 0 {
			clampMax(fall, c-1)
		}
	case ebpf.JumpLT:
		if c > 0 {
			clampMax(taken, c-1)
		}
		clampMin(fall, c)
	case ebpf.JumpLE:
		clampMax(taken, c)
		if c < ^uint64(0) {
			clampMin(fall, c+1)
		}
	}
}
