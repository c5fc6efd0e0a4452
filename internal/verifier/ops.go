package verifier

import (
	"fmt"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

func (v *checker) regRead(st *state, r ebpf.Register) (RegState, error) {
	rs := st.regs[r]
	if rs.Type == NotInit {
		return rs, fmt.Errorf("R%d !read_ok", r)
	}
	return rs, nil
}

// alu symbolically executes an ALU/ALU64 instruction.
func (v *checker) alu(st *state, ins ebpf.Instruction) error {
	if ins.Dst == ebpf.R10 {
		return fmt.Errorf("frame pointer is read only")
	}
	is32 := ins.Class() == ebpf.ClassALU
	op := ins.ALUOpField()
	if _, ok := ebpf.EvalALU(op, is32, 0, 0); !ok {
		return fmt.Errorf("unknown opcode %#02x", ins.Opcode)
	}

	var src RegState
	switch {
	case op == ebpf.ALUEnd || op == ebpf.ALUNeg:
		// Unary: the Src field is meaningless.
		src = scalarConst(0)
	case ins.SourceField() == ebpf.SourceX:
		s, err := v.regRead(st, ins.Src)
		if err != nil {
			return err
		}
		src = s
	default:
		src = scalarConst(uint64(int64(ins.Imm)))
	}

	if op == ebpf.ALUMov {
		if is32 {
			st.regs[ins.Dst] = trunc32(src)
		} else {
			st.regs[ins.Dst] = src
		}
		return nil
	}

	dst, err := v.regRead(st, ins.Dst)
	if err != nil {
		return err
	}
	if op == ebpf.ALUEnd {
		if dst.Type != Scalar {
			return fmt.Errorf("byte swap on non-scalar R%d", ins.Dst)
		}
		// ebpf.Bswap swaps all 64 bits for every width but 16 and 32.
		res := scalarUnknown()
		if ins.Imm == 16 || ins.Imm == 32 {
			res = boundedScalar(int(ins.Imm) / 8)
		}
		st.regs[ins.Dst] = res
		return nil
	}
	if op == ebpf.ALUNeg {
		src = scalarConst(0)
	}

	// Pointer arithmetic.
	if isPointer(dst.Type) {
		if is32 {
			return fmt.Errorf("32-bit arithmetic on pointer prohibited")
		}
		switch op {
		case ebpf.ALUAdd, ebpf.ALUSub:
			return v.ptrArith(st, ins.Dst, dst, src, op == ebpf.ALUSub)
		default:
			return fmt.Errorf("R%d pointer arithmetic with %s prohibited", ins.Dst, op)
		}
	}
	if isPointer(src.Type) {
		if op == ebpf.ALUAdd && !is32 {
			// scalar + ptr: commutes
			return v.ptrArith(st, ins.Dst, src, dst, false)
		}
		return fmt.Errorf("R%d pointer operand prohibited", ins.Src)
	}

	res := aluScalar(op, is32, dst, src)
	st.regs[ins.Dst] = res
	return nil
}

func isPointer(t RegType) bool {
	switch t {
	case PtrToCtx, PtrToStack, PtrToPacket, PtrToPacketEnd, PtrToMapHandle, PtrToMapValue, PtrToMapValueOrNull:
		return true
	}
	return false
}

func trunc32(r RegState) RegState {
	if r.Type != Scalar {
		// Truncating a pointer leaks its low bits as an unknown scalar.
		return RegState{Type: Scalar, UMax: 0xffffffff}
	}
	if r.Known() {
		return scalarConst(r.UMin & 0xffffffff)
	}
	if r.UMax <= 0xffffffff {
		return r
	}
	return RegState{Type: Scalar, UMax: 0xffffffff}
}

// ptrArith adds (or subtracts) a scalar to a pointer.
func (v *checker) ptrArith(st *state, dstReg ebpf.Register, ptr, off RegState, sub bool) error {
	switch ptr.Type {
	case PtrToPacketEnd, PtrToMapHandle, PtrToMapValueOrNull:
		return fmt.Errorf("arithmetic on %s prohibited", ptr.Type)
	}
	if off.Type != Scalar {
		return fmt.Errorf("pointer + pointer prohibited")
	}
	res := ptr
	switch {
	case off.Known():
		d := int64(off.UMin)
		if sub {
			d = -d
		}
		res.Off += d
	case sub:
		return fmt.Errorf("subtracting unbounded scalar from pointer")
	case off.UMax <= 1<<29:
		// Variable but bounded offset: remember the span.
		res.Off += int64(off.UMin)
		res.VarSpan += off.UMax - off.UMin
	default:
		return fmt.Errorf("R%d unbounded memory access, pointer offset not bounded", dstReg)
	}
	st.regs[dstReg] = res
	return nil
}

// aluScalar computes conservative interval arithmetic.
func aluScalar(op ebpf.ALUOp, is32 bool, a, b RegState) RegState {
	bits := uint(64)
	if is32 {
		bits = 32
		a, b = trunc32(a), trunc32(b)
	}
	if a.Known() && b.Known() {
		// alu rejected the ops the table does not define.
		r, _ := ebpf.EvalALU(op, is32, a.UMin, b.UMin)
		return scalarConst(r)
	}
	out := scalarUnknown()
	switch op {
	case ebpf.ALUAnd:
		// x & y ≤ min(xmax, ymax)
		out = RegState{Type: Scalar, UMax: minU(a.UMax, b.UMax)}
	case ebpf.ALUOr, ebpf.ALUXor:
		if hi := orUpperBound(a.UMax, b.UMax); hi < ^uint64(0) {
			out = RegState{Type: Scalar, UMax: hi}
		}
	case ebpf.ALUAdd:
		if a.UMax <= 1<<62 && b.UMax <= 1<<62 {
			out = RegState{Type: Scalar, UMin: a.UMin + b.UMin, UMax: a.UMax + b.UMax}
		}
	case ebpf.ALURsh:
		if b.Known() {
			k := b.UMin & uint64(bits-1)
			out = RegState{Type: Scalar, UMin: a.UMin >> k, UMax: a.UMax >> k}
		} else {
			out = RegState{Type: Scalar, UMax: a.UMax}
		}
	case ebpf.ALULsh:
		if b.Known() {
			k := b.UMin & uint64(bits-1)
			if k < 63 && a.UMax <= (^uint64(0))>>k {
				out = RegState{Type: Scalar, UMin: a.UMin << k, UMax: a.UMax << k}
			}
		}
	case ebpf.ALUDiv:
		if b.Known() && b.UMin != 0 {
			out = RegState{Type: Scalar, UMin: a.UMin / b.UMin, UMax: a.UMax / b.UMin}
		} else {
			out = RegState{Type: Scalar, UMax: a.UMax}
		}
	case ebpf.ALUMod:
		if b.Known() && b.UMin != 0 {
			out = RegState{Type: Scalar, UMax: b.UMin - 1}
		}
	}
	return mask32(out, is32)
}

func mask32(r RegState, is32 bool) RegState {
	if !is32 {
		return r
	}
	if r.UMax > 0xffffffff {
		return RegState{Type: Scalar, UMax: 0xffffffff}
	}
	return r
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// orUpperBound returns the smallest all-ones value covering both maxima.
func orUpperBound(a, b uint64) uint64 {
	m := a | b
	// Round up to 2^k - 1.
	for i := uint(1); i < 64; i <<= 1 {
		m |= m >> i
	}
	return m
}

// load type-checks a memory load and returns the loaded abstract value.
func (v *checker) load(st *state, ins ebpf.Instruction) (RegState, error) {
	base, err := v.regRead(st, ins.Src)
	if err != nil {
		return RegState{}, err
	}
	size := ins.SizeField().Bytes()
	off := base.Off + int64(ins.Offset)
	switch base.Type {
	case PtrToCtx:
		cs := int64(ctxSize(v.prog.Hook))
		if off < 0 || off+int64(size) > cs || base.VarSpan != 0 {
			return RegState{}, fmt.Errorf("invalid ctx access off=%d size=%d", off, size)
		}
		if off%int64(size) != 0 {
			return RegState{}, fmt.Errorf("misaligned ctx access off=%d size=%d", off, size)
		}
		if v.prog.Hook == ebpf.HookXDP && size == 8 {
			if off == 0 {
				return RegState{Type: PtrToPacket}, nil
			}
			if off == 8 {
				return RegState{Type: PtrToPacketEnd}, nil
			}
		}
		return boundedScalar(size), nil
	case PtrToStack:
		return st.readStack(off, size)
	case PtrToPacket:
		if off < 0 || off+int64(size)+int64(base.VarSpan) > st.pktSafe {
			return RegState{}, fmt.Errorf("invalid access to packet, off=%d size=%d, R%d(pkt) allowed=%d", off, size, ins.Src, st.pktSafe)
		}
		return boundedScalar(size), nil
	case PtrToMapValue:
		vs := int64(v.prog.Maps[base.MapIdx].ValueSize)
		if off < 0 || off+int64(size)+int64(base.VarSpan) > vs {
			return RegState{}, fmt.Errorf("invalid access to map value, off=%d size=%d value_size=%d", off, size, vs)
		}
		return boundedScalar(size), nil
	case PtrToMapValueOrNull:
		return RegState{}, fmt.Errorf("R%d invalid mem access 'map_value_or_null'", ins.Src)
	}
	return RegState{}, fmt.Errorf("R%d invalid mem access '%s'", ins.Src, base.Type)
}

// store type-checks a memory store (including atomics).
func (v *checker) store(st *state, ins ebpf.Instruction) error {
	base, err := v.regRead(st, ins.Dst)
	if err != nil {
		return err
	}
	size := ins.SizeField().Bytes()
	off := base.Off + int64(ins.Offset)

	var val RegState
	if ins.Class() == ebpf.ClassST {
		val = scalarConst(uint64(int64(ins.Imm)))
	} else {
		s, err := v.regRead(st, ins.Src)
		if err != nil {
			return err
		}
		val = s
	}

	if ins.IsAtomic() {
		if size != 4 && size != 8 {
			return fmt.Errorf("invalid atomic operand size %d", size)
		}
		if val.Type != Scalar {
			return fmt.Errorf("atomic operand must be scalar")
		}
		if off%int64(size) != 0 {
			return fmt.Errorf("misaligned atomic access off=%d", off)
		}
		switch base.Type {
		case PtrToStack:
			if !st.stackRangeInitialized(off, int64(size)) {
				return fmt.Errorf("atomic on uninitialized stack at fp%+d", off)
			}
			return nil
		case PtrToMapValue:
			vs := int64(v.prog.Maps[base.MapIdx].ValueSize)
			if off < 0 || off+int64(size)+int64(base.VarSpan) > vs {
				return fmt.Errorf("invalid atomic access to map value off=%d", off)
			}
			return nil
		default:
			return fmt.Errorf("BPF_ATOMIC stores into R%d %s is not allowed", ins.Dst, base.Type)
		}
	}

	switch base.Type {
	case PtrToStack:
		return st.writeStack(off, size, val)
	case PtrToPacket:
		if isPointer(val.Type) {
			return fmt.Errorf("storing pointer to packet prohibited")
		}
		if off < 0 || off+int64(size)+int64(base.VarSpan) > st.pktSafe {
			return fmt.Errorf("invalid write to packet, off=%d size=%d allowed=%d", off, size, st.pktSafe)
		}
		return nil
	case PtrToMapValue:
		if isPointer(val.Type) {
			return fmt.Errorf("storing pointer to map value prohibited")
		}
		vs := int64(v.prog.Maps[base.MapIdx].ValueSize)
		if off < 0 || off+int64(size)+int64(base.VarSpan) > vs {
			return fmt.Errorf("invalid write to map value, off=%d size=%d value_size=%d", off, size, vs)
		}
		return nil
	case PtrToCtx:
		return fmt.Errorf("ctx is read-only")
	case PtrToMapValueOrNull:
		return fmt.Errorf("R%d invalid mem access 'map_value_or_null'", ins.Dst)
	}
	return fmt.Errorf("R%d invalid mem access '%s'", ins.Dst, base.Type)
}

// call type-checks a helper invocation against its signature.
func (v *checker) call(st *state, ins ebpf.Instruction) error {
	spec, ok := helpers.Table[int(ins.Imm)]
	if !ok {
		return fmt.Errorf("invalid func unknown#%d", ins.Imm)
	}
	if !helpers.AllowedAt(spec.ID, v.prog.Hook) {
		return fmt.Errorf("unknown func %s#%d for program type %s", spec.Name, spec.ID, v.prog.Hook)
	}
	var mapIdx = -1
	var memPtr *RegState
	for i, kind := range spec.Args {
		reg := ebpf.Register(1 + i)
		rs, err := v.regRead(st, reg)
		if err != nil {
			return fmt.Errorf("%s: R%d: %w", spec.Name, reg, err)
		}
		switch kind {
		case helpers.ArgScalar:
			if rs.Type != Scalar {
				return fmt.Errorf("%s: R%d type=%s expected=scalar", spec.Name, reg, rs.Type)
			}
		case helpers.ArgCtx:
			if rs.Type != PtrToCtx {
				return fmt.Errorf("%s: R%d type=%s expected=ctx", spec.Name, reg, rs.Type)
			}
		case helpers.ArgMap:
			if rs.Type != PtrToMapHandle {
				return fmt.Errorf("%s: R%d type=%s expected=map_ptr", spec.Name, reg, rs.Type)
			}
			mapIdx = rs.MapIdx
		case helpers.ArgMapKey, helpers.ArgMapValue:
			if mapIdx < 0 {
				return fmt.Errorf("%s: key/value argument without map", spec.Name)
			}
			n := int64(v.prog.Maps[mapIdx].KeySize)
			if kind == helpers.ArgMapValue {
				n = int64(v.prog.Maps[mapIdx].ValueSize)
			}
			if err := v.checkMemArg(st, rs, n, false); err != nil {
				return fmt.Errorf("%s: R%d %w", spec.Name, reg, err)
			}
		case helpers.ArgMem:
			cp := rs
			memPtr = &cp
		case helpers.ArgSize:
			if rs.Type != Scalar {
				return fmt.Errorf("%s: R%d size must be scalar", spec.Name, reg)
			}
			if memPtr == nil {
				return fmt.Errorf("%s: size argument without memory", spec.Name)
			}
			if rs.UMax > 1<<20 {
				return fmt.Errorf("%s: R%d unbounded size", spec.Name, reg)
			}
			if err := v.checkMemArg(st, *memPtr, int64(rs.UMax), spec.WritesMem); err != nil {
				return fmt.Errorf("%s: R%d %w", spec.Name, reg, err)
			}
			memPtr = nil
		}
	}
	// Return value and clobbers.
	for r := ebpf.R1; r <= ebpf.R5; r++ {
		st.regs[r] = RegState{}
	}
	switch spec.Ret {
	case helpers.RetMapValueOrNull:
		v.nextID++
		st.regs[0] = RegState{Type: PtrToMapValueOrNull, MapIdx: mapIdx, ID: v.nextID}
	default:
		st.regs[0] = scalarUnknown()
	}
	return nil
}

// checkMemArg validates a pointer argument to n bytes of memory. write
// marks the region initialized instead of requiring it.
func (v *checker) checkMemArg(st *state, rs RegState, n int64, write bool) error {
	if n == 0 {
		return nil
	}
	switch rs.Type {
	case PtrToStack:
		if write {
			if rs.Off-0 < -int64(numSlots*8) || rs.Off+n > 0 {
				return fmt.Errorf("invalid stack region [%d,%d)", rs.Off, rs.Off+n)
			}
			st.markStackMisc(rs.Off, n)
			return nil
		}
		if !st.stackRangeInitialized(rs.Off, n) {
			return fmt.Errorf("indirect access to uninitialized stack [fp%+d, +%d)", rs.Off, n)
		}
		return nil
	case PtrToMapValue:
		vs := int64(v.prog.Maps[rs.MapIdx].ValueSize)
		if rs.Off < 0 || rs.Off+n+int64(rs.VarSpan) > vs {
			return fmt.Errorf("map value region out of bounds")
		}
		return nil
	case PtrToPacket:
		if rs.Off < 0 || rs.Off+n+int64(rs.VarSpan) > st.pktSafe {
			return fmt.Errorf("packet region out of bounds (allowed=%d)", st.pktSafe)
		}
		return nil
	}
	return fmt.Errorf("type=%s expected=memory", rs.Type)
}
