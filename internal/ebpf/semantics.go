package ebpf

import "math/bits"

// This file is the one statement of what a scalar eBPF instruction computes.
// The reference interpreter and the fast engine's generic micro-ops
// (internal/vm), the superoptimizer's column kernel, constant propagation
// (internal/analysis), the verifier's known-operand case and CP&DCE's branch
// folder all call it; none keeps a copy. ok=false means the ISA does not
// define the op field: the VM faults on such an ALU or atomic instruction and
// never takes such a jump, and the verifier rejects the program.
//
// Operands are the full 64-bit register values (or the sign-extended
// immediate); the 32-bit forms truncate both on the way in and zero-extend the
// result, so a caller never masks.

// EvalALU computes op on destination value dst and source value src, at 32
// bits when is32. Division by zero yields 0 and modulo by zero leaves dst, as
// the kernel defines them; shift counts are masked to the operand width. The
// source of ALUEnd is the swap width (the instruction's immediate, whatever
// its source bit says) and the swap ignores is32.
func EvalALU(op ALUOp, is32 bool, dst, src uint64) (r uint64, ok bool) {
	if op == ALUEnd {
		return Bswap(dst, int32(src)), true
	}
	shiftMask := uint64(63)
	if is32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
		shiftMask = 31
	}
	switch op {
	case ALUAdd:
		r = dst + src
	case ALUSub:
		r = dst - src
	case ALUMul:
		r = dst * src
	case ALUDiv:
		if src != 0 {
			r = dst / src
		}
	case ALUMod:
		r = dst
		if src != 0 {
			r = dst % src
		}
	case ALUOr:
		r = dst | src
	case ALUAnd:
		r = dst & src
	case ALUXor:
		r = dst ^ src
	case ALULsh:
		r = dst << (src & shiftMask)
	case ALURsh:
		r = dst >> (src & shiftMask)
	case ALUArsh:
		if is32 {
			r = uint64(int32(dst) >> (src & shiftMask))
		} else {
			r = uint64(int64(dst) >> (src & shiftMask))
		}
	case ALUNeg:
		r = -dst
	case ALUMov:
		r = src
	default:
		return 0, false
	}
	if is32 {
		r = uint64(uint32(r))
	}
	return r, true
}

// Bswap reverses the byte order of the low width bits of v and zero-extends
// the result. Widths other than 16 and 32 swap all 64 bits.
func Bswap(v uint64, width int32) uint64 {
	switch width {
	case 16:
		return uint64(bits.ReverseBytes16(uint16(v)))
	case 32:
		return uint64(bits.ReverseBytes32(uint32(v)))
	}
	return bits.ReverseBytes64(v)
}

// EvalJump reports whether the conditional jump op is taken for operands a
// (the dst register) and b (src register or sign-extended immediate); the
// JMP32 forms compare the low halves, sign-extended for the signed ops.
// JumpAlways, JumpCall and JumpExit are not comparisons and report ok=false
// like the undefined op fields.
func EvalJump(op JumpOp, is32 bool, a, b uint64) (taken, ok bool) {
	sa, sb := int64(a), int64(b)
	if is32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
		sa, sb = int64(int32(a)), int64(int32(b))
	}
	switch op {
	case JumpEq:
		return a == b, true
	case JumpNE:
		return a != b, true
	case JumpGT:
		return a > b, true
	case JumpGE:
		return a >= b, true
	case JumpLT:
		return a < b, true
	case JumpLE:
		return a <= b, true
	case JumpSet:
		return a&b != 0, true
	case JumpSGT:
		return sa > sb, true
	case JumpSGE:
		return sa >= sb, true
	case JumpSLT:
		return sa < sb, true
	case JumpSLE:
		return sa <= sb, true
	}
	return false, false
}

// EvalAtomic computes the value an atomic read-modify-write stores: op
// applied to the memory operand old and the source register src. The caller
// truncates to the access size when it stores.
func EvalAtomic(op AtomicOp, old, src uint64) (r uint64, ok bool) {
	switch op {
	case AtomicAdd:
		return old + src, true
	case AtomicOr:
		return old | src, true
	case AtomicAnd:
		return old & src, true
	case AtomicXor:
		return old ^ src, true
	}
	return 0, false
}
