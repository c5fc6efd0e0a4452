package ebpf

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The tables below pin EvalALU, Bswap, EvalJump and EvalAtomic to expected
// values that were written out, not computed by any engine in this tree: both
// VM engines, the superoptimizer's kernel, constant propagation, the
// verifier's known-operand case and the branch folder all call those
// functions, so nothing that calls them can vouch for them.

// aluGolden: op(dst, src) at 64 bits and at 32 bits.
var aluGolden = []struct {
	op             ALUOp
	dst, src       uint64
	want64, want32 uint64
}{
	{ALUAdd, 0x1, 0x2, 0x3, 0x3},
	{ALUAdd, 0xffffffffffffffff, 0x1, 0x0, 0x0},                      // wraps
	{ALUAdd, 0xdeadbeefffffffff, 0x1, 0xdeadbef000000000, 0x0},       // 32: carry out of bit 31 dropped, dirty upper half cleared
	{ALUAdd, 0x7fffffff, 0xffffffffffffffff, 0x7ffffffe, 0x7ffffffe}, // sign-extended immediate -1
	{ALUSub, 0x0, 0x1, 0xffffffffffffffff, 0xffffffff},               // borrow
	{ALUSub, 0xdeadbeef00000005, 0x7, 0xdeadbeeefffffffe, 0xfffffffe},
	{ALUSub, 0x100000000, 0x1, 0xffffffff, 0xffffffff},
	{ALUMul, 0xffffffff, 0xffffffff, 0xfffffffe00000001, 0x1},
	{ALUMul, 0xdeadbeef00000003, 0xfffffffffffffffe, 0x42a48221fffffffa, 0xfffffffa},
	{ALUMul, 0x8000000000000000, 0x2, 0x0, 0x0},
	{ALUDiv, 0x64, 0x7, 0xe, 0xe},
	{ALUDiv, 0xdeadbeef00000064, 0x0, 0x0, 0x0},                // by zero: 0
	{ALUDiv, 0xffffffffffffffff, 0xffffffffffffffff, 0x1, 0x1}, // unsigned
	{ALUDiv, 0xdeadbeef00000009, 0x100000000, 0xdeadbeef, 0x0}, // 32: divisor truncates to zero
	{ALUDiv, 0x8000000000000000, 0x2, 0x4000000000000000, 0x0},
	{ALUMod, 0x64, 0x7, 0x2, 0x2},
	{ALUMod, 0xdeadbeef00000064, 0x0, 0xdeadbeef00000064, 0x64}, // by zero: dst, the 32-bit dst truncated
	{ALUMod, 0xffffffffffffffff, 0xa, 0x5, 0x5},
	{ALUMod, 0xdeadbeef00000009, 0x100000000, 0x9, 0x9}, // 32: divisor truncates to zero
	{ALUOr, 0xf0f0, 0xf0f, 0xffff, 0xffff},
	{ALUOr, 0xdeadbeef00000000, 0x1, 0xdeadbeef00000001, 0x1},
	{ALUAnd, 0xff00ff, 0xff0f0, 0xf00f0, 0xf00f0},
	{ALUAnd, 0xffffffffffffffff, 0xffffffffffffff00, 0xffffffffffffff00, 0xffffff00},
	{ALUXor, 0xaaaa, 0xffff, 0x5555, 0x5555},
	{ALUXor, 0xdeadbeef00000001, 0xdeadbeef00000001, 0x0, 0x0},
	{ALUXor, 0xffffffffffffffff, 0x100000000, 0xfffffffeffffffff, 0xffffffff},
	{ALULsh, 0x8000000180000001, 0x0, 0x8000000180000001, 0x80000001},   // count 0
	{ALULsh, 0x8000000180000001, 0x1, 0x300000002, 0x2},                 // count 1
	{ALULsh, 0x8000000180000001, 0x1f, 0xc000000080000000, 0x80000000},  // count 31
	{ALULsh, 0x8000000180000001, 0x20, 0x8000000100000000, 0x80000001},  // count 32
	{ALULsh, 0x8000000180000001, 0x3f, 0x8000000000000000, 0x80000000},  // count 63
	{ALULsh, 0x8000000180000001, 0x40, 0x8000000180000001, 0x80000001},  // count 64
	{ALULsh, 0x8000000180000001, 0xff, 0x8000000000000000, 0x80000000},  // count 255
	{ALURsh, 0x8000000180000001, 0x0, 0x8000000180000001, 0x80000001},   // count 0
	{ALURsh, 0x8000000180000001, 0x1, 0x40000000c0000000, 0x40000000},   // count 1
	{ALURsh, 0x8000000180000001, 0x1f, 0x100000003, 0x1},                // count 31
	{ALURsh, 0x8000000180000001, 0x20, 0x80000001, 0x80000001},          // count 32
	{ALURsh, 0x8000000180000001, 0x3f, 0x1, 0x1},                        // count 63
	{ALURsh, 0x8000000180000001, 0x40, 0x8000000180000001, 0x80000001},  // count 64
	{ALURsh, 0x8000000180000001, 0xff, 0x1, 0x1},                        // count 255
	{ALUArsh, 0x8000000180000001, 0x0, 0x8000000180000001, 0x80000001},  // count 0
	{ALUArsh, 0x8000000180000001, 0x1, 0xc0000000c0000000, 0xc0000000},  // count 1
	{ALUArsh, 0x8000000180000001, 0x1f, 0xffffffff00000003, 0xffffffff}, // count 31
	{ALUArsh, 0x8000000180000001, 0x20, 0xffffffff80000001, 0x80000001}, // count 32
	{ALUArsh, 0x8000000180000001, 0x3f, 0xffffffffffffffff, 0xffffffff}, // count 63
	{ALUArsh, 0x8000000180000001, 0x40, 0x8000000180000001, 0x80000001}, // count 64
	{ALUArsh, 0x8000000180000001, 0xff, 0xffffffffffffffff, 0xffffffff}, // count 255
	{ALUArsh, 0x80000000, 0x1f, 0x1, 0xffffffff},                        // arsh32 of 0x80000000 fills 32 bits, then zero-extends
	{ALUArsh, 0x7fffffff, 0x4, 0x7ffffff, 0x7ffffff},
	{ALUArsh, 0xffffffffffffffff, 0x3f, 0xffffffffffffffff, 0xffffffff},
	{ALUNeg, 0x0, 0x0, 0x0, 0x0},
	{ALUNeg, 0x1, 0x1234, 0xffffffffffffffff, 0xffffffff},      // source ignored
	{ALUNeg, 0x8000000000000000, 0x0, 0x8000000000000000, 0x0}, // min int64
	{ALUNeg, 0x80000000, 0x0, 0xffffffff80000000, 0x80000000},  // min int32
	{ALUNeg, 0xdeadbeef00000002, 0x0, 0x21524110fffffffe, 0xfffffffe},
	{ALUMov, 0x1111, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffff}, // mov32 of a negative immediate zero-extends
	{ALUMov, 0xdeadbeef00000000, 0xffffffff80000000, 0xffffffff80000000, 0x80000000},
	{ALUMov, 0x7, 0x123456789, 0x123456789, 0x23456789},
}

// jumpGolden: whether op is taken for (a, b) as JMP and as JMP32. The pairs
// straddle the signed boundary of each width and the 0xffffffff/0x1_0000_0000
// edge where the two widths disagree; the jset rows include disjoint masks.
var jumpGolden = []struct {
	op             JumpOp
	a, b           uint64
	want64, want32 bool
}{
	{JumpEq, 0x0, 0x0, true, true},
	{JumpEq, 0x1, 0x2, false, false},
	{JumpEq, 0x2, 0x1, false, false},
	{JumpEq, 0x7fffffff, 0x80000000, false, false},
	{JumpEq, 0x80000000, 0x7fffffff, false, false},
	{JumpEq, 0xffffffff, 0x100000000, false, false},
	{JumpEq, 0x100000000, 0xffffffff, false, false},
	{JumpEq, 0x100000005, 0x5, false, true},
	{JumpEq, 0xffffffffffffffff, 0x0, false, false},
	{JumpEq, 0x0, 0xffffffffffffffff, false, false},
	{JumpEq, 0xffffffffffffffff, 0xffffffff, false, true},
	{JumpEq, 0x7fffffffffffffff, 0x8000000000000000, false, false},
	{JumpEq, 0x8000000000000000, 0x7fffffffffffffff, false, false},
	{JumpEq, 0xf0f0, 0xf0f, false, false},
	{JumpEq, 0xf000000000, 0xf0, false, false},
	{JumpEq, 0x100000001, 0x1, false, true},
	{JumpNE, 0x0, 0x0, false, false},
	{JumpNE, 0x1, 0x2, true, true},
	{JumpNE, 0x2, 0x1, true, true},
	{JumpNE, 0x7fffffff, 0x80000000, true, true},
	{JumpNE, 0x80000000, 0x7fffffff, true, true},
	{JumpNE, 0xffffffff, 0x100000000, true, true},
	{JumpNE, 0x100000000, 0xffffffff, true, true},
	{JumpNE, 0x100000005, 0x5, true, false},
	{JumpNE, 0xffffffffffffffff, 0x0, true, true},
	{JumpNE, 0x0, 0xffffffffffffffff, true, true},
	{JumpNE, 0xffffffffffffffff, 0xffffffff, true, false},
	{JumpNE, 0x7fffffffffffffff, 0x8000000000000000, true, true},
	{JumpNE, 0x8000000000000000, 0x7fffffffffffffff, true, true},
	{JumpNE, 0xf0f0, 0xf0f, true, true},
	{JumpNE, 0xf000000000, 0xf0, true, true},
	{JumpNE, 0x100000001, 0x1, true, false},
	{JumpGT, 0x0, 0x0, false, false},
	{JumpGT, 0x1, 0x2, false, false},
	{JumpGT, 0x2, 0x1, true, true},
	{JumpGT, 0x7fffffff, 0x80000000, false, false},
	{JumpGT, 0x80000000, 0x7fffffff, true, true},
	{JumpGT, 0xffffffff, 0x100000000, false, true},
	{JumpGT, 0x100000000, 0xffffffff, true, false},
	{JumpGT, 0x100000005, 0x5, true, false},
	{JumpGT, 0xffffffffffffffff, 0x0, true, true},
	{JumpGT, 0x0, 0xffffffffffffffff, false, false},
	{JumpGT, 0xffffffffffffffff, 0xffffffff, true, false},
	{JumpGT, 0x7fffffffffffffff, 0x8000000000000000, false, true},
	{JumpGT, 0x8000000000000000, 0x7fffffffffffffff, true, false},
	{JumpGT, 0xf0f0, 0xf0f, true, true},
	{JumpGT, 0xf000000000, 0xf0, true, false},
	{JumpGT, 0x100000001, 0x1, true, false},
	{JumpGE, 0x0, 0x0, true, true},
	{JumpGE, 0x1, 0x2, false, false},
	{JumpGE, 0x2, 0x1, true, true},
	{JumpGE, 0x7fffffff, 0x80000000, false, false},
	{JumpGE, 0x80000000, 0x7fffffff, true, true},
	{JumpGE, 0xffffffff, 0x100000000, false, true},
	{JumpGE, 0x100000000, 0xffffffff, true, false},
	{JumpGE, 0x100000005, 0x5, true, true},
	{JumpGE, 0xffffffffffffffff, 0x0, true, true},
	{JumpGE, 0x0, 0xffffffffffffffff, false, false},
	{JumpGE, 0xffffffffffffffff, 0xffffffff, true, true},
	{JumpGE, 0x7fffffffffffffff, 0x8000000000000000, false, true},
	{JumpGE, 0x8000000000000000, 0x7fffffffffffffff, true, false},
	{JumpGE, 0xf0f0, 0xf0f, true, true},
	{JumpGE, 0xf000000000, 0xf0, true, false},
	{JumpGE, 0x100000001, 0x1, true, true},
	{JumpLT, 0x0, 0x0, false, false},
	{JumpLT, 0x1, 0x2, true, true},
	{JumpLT, 0x2, 0x1, false, false},
	{JumpLT, 0x7fffffff, 0x80000000, true, true},
	{JumpLT, 0x80000000, 0x7fffffff, false, false},
	{JumpLT, 0xffffffff, 0x100000000, true, false},
	{JumpLT, 0x100000000, 0xffffffff, false, true},
	{JumpLT, 0x100000005, 0x5, false, false},
	{JumpLT, 0xffffffffffffffff, 0x0, false, false},
	{JumpLT, 0x0, 0xffffffffffffffff, true, true},
	{JumpLT, 0xffffffffffffffff, 0xffffffff, false, false},
	{JumpLT, 0x7fffffffffffffff, 0x8000000000000000, true, false},
	{JumpLT, 0x8000000000000000, 0x7fffffffffffffff, false, true},
	{JumpLT, 0xf0f0, 0xf0f, false, false},
	{JumpLT, 0xf000000000, 0xf0, false, true},
	{JumpLT, 0x100000001, 0x1, false, false},
	{JumpLE, 0x0, 0x0, true, true},
	{JumpLE, 0x1, 0x2, true, true},
	{JumpLE, 0x2, 0x1, false, false},
	{JumpLE, 0x7fffffff, 0x80000000, true, true},
	{JumpLE, 0x80000000, 0x7fffffff, false, false},
	{JumpLE, 0xffffffff, 0x100000000, true, false},
	{JumpLE, 0x100000000, 0xffffffff, false, true},
	{JumpLE, 0x100000005, 0x5, false, true},
	{JumpLE, 0xffffffffffffffff, 0x0, false, false},
	{JumpLE, 0x0, 0xffffffffffffffff, true, true},
	{JumpLE, 0xffffffffffffffff, 0xffffffff, false, true},
	{JumpLE, 0x7fffffffffffffff, 0x8000000000000000, true, false},
	{JumpLE, 0x8000000000000000, 0x7fffffffffffffff, false, true},
	{JumpLE, 0xf0f0, 0xf0f, false, false},
	{JumpLE, 0xf000000000, 0xf0, false, true},
	{JumpLE, 0x100000001, 0x1, false, true},
	{JumpSet, 0x0, 0x0, false, false},
	{JumpSet, 0x1, 0x2, false, false},
	{JumpSet, 0x2, 0x1, false, false},
	{JumpSet, 0x7fffffff, 0x80000000, false, false},
	{JumpSet, 0x80000000, 0x7fffffff, false, false},
	{JumpSet, 0xffffffff, 0x100000000, false, false},
	{JumpSet, 0x100000000, 0xffffffff, false, false},
	{JumpSet, 0x100000005, 0x5, true, true},
	{JumpSet, 0xffffffffffffffff, 0x0, false, false},
	{JumpSet, 0x0, 0xffffffffffffffff, false, false},
	{JumpSet, 0xffffffffffffffff, 0xffffffff, true, true},
	{JumpSet, 0x7fffffffffffffff, 0x8000000000000000, false, false},
	{JumpSet, 0x8000000000000000, 0x7fffffffffffffff, false, false},
	{JumpSet, 0xf0f0, 0xf0f, false, false},
	{JumpSet, 0xf000000000, 0xf0, false, false},
	{JumpSet, 0x100000001, 0x1, true, true},
	{JumpSGT, 0x0, 0x0, false, false},
	{JumpSGT, 0x1, 0x2, false, false},
	{JumpSGT, 0x2, 0x1, true, true},
	{JumpSGT, 0x7fffffff, 0x80000000, false, true},
	{JumpSGT, 0x80000000, 0x7fffffff, true, false},
	{JumpSGT, 0xffffffff, 0x100000000, false, false},
	{JumpSGT, 0x100000000, 0xffffffff, true, true},
	{JumpSGT, 0x100000005, 0x5, true, false},
	{JumpSGT, 0xffffffffffffffff, 0x0, false, false},
	{JumpSGT, 0x0, 0xffffffffffffffff, true, true},
	{JumpSGT, 0xffffffffffffffff, 0xffffffff, false, false},
	{JumpSGT, 0x7fffffffffffffff, 0x8000000000000000, true, false},
	{JumpSGT, 0x8000000000000000, 0x7fffffffffffffff, false, true},
	{JumpSGT, 0xf0f0, 0xf0f, true, true},
	{JumpSGT, 0xf000000000, 0xf0, true, false},
	{JumpSGT, 0x100000001, 0x1, true, false},
	{JumpSGE, 0x0, 0x0, true, true},
	{JumpSGE, 0x1, 0x2, false, false},
	{JumpSGE, 0x2, 0x1, true, true},
	{JumpSGE, 0x7fffffff, 0x80000000, false, true},
	{JumpSGE, 0x80000000, 0x7fffffff, true, false},
	{JumpSGE, 0xffffffff, 0x100000000, false, false},
	{JumpSGE, 0x100000000, 0xffffffff, true, true},
	{JumpSGE, 0x100000005, 0x5, true, true},
	{JumpSGE, 0xffffffffffffffff, 0x0, false, false},
	{JumpSGE, 0x0, 0xffffffffffffffff, true, true},
	{JumpSGE, 0xffffffffffffffff, 0xffffffff, false, true},
	{JumpSGE, 0x7fffffffffffffff, 0x8000000000000000, true, false},
	{JumpSGE, 0x8000000000000000, 0x7fffffffffffffff, false, true},
	{JumpSGE, 0xf0f0, 0xf0f, true, true},
	{JumpSGE, 0xf000000000, 0xf0, true, false},
	{JumpSGE, 0x100000001, 0x1, true, true},
	{JumpSLT, 0x0, 0x0, false, false},
	{JumpSLT, 0x1, 0x2, true, true},
	{JumpSLT, 0x2, 0x1, false, false},
	{JumpSLT, 0x7fffffff, 0x80000000, true, false},
	{JumpSLT, 0x80000000, 0x7fffffff, false, true},
	{JumpSLT, 0xffffffff, 0x100000000, true, true},
	{JumpSLT, 0x100000000, 0xffffffff, false, false},
	{JumpSLT, 0x100000005, 0x5, false, false},
	{JumpSLT, 0xffffffffffffffff, 0x0, true, true},
	{JumpSLT, 0x0, 0xffffffffffffffff, false, false},
	{JumpSLT, 0xffffffffffffffff, 0xffffffff, true, false},
	{JumpSLT, 0x7fffffffffffffff, 0x8000000000000000, false, true},
	{JumpSLT, 0x8000000000000000, 0x7fffffffffffffff, true, false},
	{JumpSLT, 0xf0f0, 0xf0f, false, false},
	{JumpSLT, 0xf000000000, 0xf0, false, true},
	{JumpSLT, 0x100000001, 0x1, false, false},
	{JumpSLE, 0x0, 0x0, true, true},
	{JumpSLE, 0x1, 0x2, true, true},
	{JumpSLE, 0x2, 0x1, false, false},
	{JumpSLE, 0x7fffffff, 0x80000000, true, false},
	{JumpSLE, 0x80000000, 0x7fffffff, false, true},
	{JumpSLE, 0xffffffff, 0x100000000, true, true},
	{JumpSLE, 0x100000000, 0xffffffff, false, false},
	{JumpSLE, 0x100000005, 0x5, false, true},
	{JumpSLE, 0xffffffffffffffff, 0x0, true, true},
	{JumpSLE, 0x0, 0xffffffffffffffff, false, false},
	{JumpSLE, 0xffffffffffffffff, 0xffffffff, true, true},
	{JumpSLE, 0x7fffffffffffffff, 0x8000000000000000, false, true},
	{JumpSLE, 0x8000000000000000, 0x7fffffffffffffff, true, false},
	{JumpSLE, 0xf0f0, 0xf0f, false, false},
	{JumpSLE, 0xf000000000, 0xf0, false, true},
	{JumpSLE, 0x100000001, 0x1, false, true},
}

func TestScalarSemanticsGolden(t *testing.T) {
	seenALU := map[ALUOp]bool{}
	for _, g := range aluGolden {
		seenALU[g.op] = true
		for _, w := range []struct {
			is32 bool
			want uint64
		}{{false, g.want64}, {true, g.want32}} {
			got, ok := EvalALU(g.op, w.is32, g.dst, g.src)
			if !ok || got != w.want {
				t.Errorf("EvalALU(%s, is32=%v, %#x, %#x) = %#x, %v; want %#x, true", g.op, w.is32, g.dst, g.src, got, ok, w.want)
			}
		}
	}
	seenJump := map[JumpOp]bool{}
	for _, g := range jumpGolden {
		seenJump[g.op] = true
		for _, w := range []struct{ is32, want bool }{{false, g.want64}, {true, g.want32}} {
			got, ok := EvalJump(g.op, w.is32, g.a, g.b)
			if !ok || got != w.want {
				t.Errorf("EvalJump(%s, is32=%v, %#x, %#x) = %v, %v; want %v, true", g.op, w.is32, g.a, g.b, got, ok, w.want)
			}
		}
	}

	// Byte swaps, through both entry points; the class width is ignored and
	// any width but 16 and 32 swaps the whole register.
	const v = 0x0102030405060708
	for _, g := range []struct {
		width int32
		want  uint64
	}{{16, 0x0807}, {32, 0x08070605}, {64, 0x0807060504030201}, {0, 0x0807060504030201}, {8, 0x0807060504030201}} {
		if got := Bswap(v, g.width); got != g.want {
			t.Errorf("Bswap(%#x, %d) = %#x, want %#x", uint64(v), g.width, got, g.want)
		}
		for _, is32 := range []bool{false, true} {
			if got, ok := EvalALU(ALUEnd, is32, v, uint64(g.width)); !ok || got != g.want {
				t.Errorf("EvalALU(end, is32=%v, %#x, %d) = %#x, %v; want %#x, true", is32, uint64(v), g.width, got, ok, g.want)
			}
		}
	}
	seenALU[ALUEnd] = true
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 64; i++ {
		x := rng.Uint64()
		if Bswap(x, 16) != uint64(bits.ReverseBytes16(uint16(x))) ||
			Bswap(x, 32) != uint64(bits.ReverseBytes32(uint32(x))) ||
			Bswap(x, 64) != bits.ReverseBytes64(x) {
			t.Errorf("Bswap(%#x) disagrees with math/bits.ReverseBytes", x)
		}
	}

	for _, g := range []struct {
		op             AtomicOp
		old, src, want uint64
	}{
		{AtomicAdd, 0xffffffffffffffff, 0x2, 0x1},
		{AtomicAdd, 0xffffffff, 0x1, 0x100000000}, // the caller truncates to the access size
		{AtomicOr, 0xf0f0, 0x0f0f, 0xffff},
		{AtomicAnd, 0xff00ff, 0x0ff0f0, 0x0f00f0},
		{AtomicXor, 0xaaaa, 0xffff, 0x5555},
	} {
		if got, ok := EvalAtomic(g.op, g.old, g.src); !ok || got != g.want {
			t.Errorf("EvalAtomic(%s, %#x, %#x) = %#x, %v; want %#x, true", g.op, g.old, g.src, got, ok, g.want)
		}
	}

	// Every op field is either covered above or undefined, and an undefined
	// one says so at both widths.
	for f := 0; f < 0x100; f += 0x10 {
		aluDefined := f <= int(ALUEnd)
		if aluDefined != seenALU[ALUOp(f)] {
			t.Errorf("alu op %#x: defined=%v but golden rows=%v", f, aluDefined, seenALU[ALUOp(f)])
		}
		jumpDefined := f <= int(JumpSLE) && JumpOp(f) != JumpAlways && JumpOp(f) != JumpCall && JumpOp(f) != JumpExit
		if jumpDefined != seenJump[JumpOp(f)] {
			t.Errorf("jump op %#x: a comparison=%v but golden rows=%v", f, jumpDefined, seenJump[JumpOp(f)])
		}
		for _, is32 := range []bool{false, true} {
			if r, ok := EvalALU(ALUOp(f), is32, 5, 3); ok != aluDefined || (!ok && r != 0) {
				t.Errorf("EvalALU(%#x, is32=%v) = %#x, ok=%v; want ok=%v", f, is32, r, ok, aluDefined)
			}
			if taken, ok := EvalJump(JumpOp(f), is32, 5, 5); ok != jumpDefined || (!ok && taken) {
				t.Errorf("EvalJump(%#x, is32=%v) = %v, ok=%v; want ok=%v and never taken when undefined", f, is32, taken, ok, jumpDefined)
			}
		}
	}
	for _, op := range []AtomicOp{0x10, 0x20, 0xe0, 0x01, -1} {
		if r, ok := EvalAtomic(op, 1, 2); ok || r != 0 {
			t.Errorf("EvalAtomic(%#x) = %#x, ok=%v; want undefined", int32(op), r, ok)
		}
	}
}
