package verifier

import (
	"fmt"
	"math/rand"
	"testing"

	"merlin/internal/ebpf"
)

// TestRejectsUndefinedALUAndJumpOps: an op field the ISA does not define is
// an ALU instruction the VM faults on and a jump it never takes; the verifier
// used to type the first as the constant 0 and fork on the second, and pass
// the program.
func TestRejectsUndefinedALUAndJumpOps(t *testing.T) {
	for _, field := range []uint8{0xe0, 0xf0} {
		for _, class := range []ebpf.Class{ebpf.ClassALU64, ebpf.ClassALU} {
			for _, src := range []ebpf.Source{ebpf.SourceK, ebpf.SourceX} {
				op := field | uint8(src) | uint8(class)
				mustFail(t, xdp(
					ebpf.Mov64Imm(ebpf.R0, 1),
					ebpf.Instruction{Opcode: op, Dst: ebpf.R0, Src: ebpf.R0, Imm: 2},
					ebpf.Exit(),
				), fmt.Sprintf("unknown opcode %#02x", op))
			}
		}
		for _, class := range []ebpf.Class{ebpf.ClassJMP, ebpf.ClassJMP32} {
			for _, src := range []ebpf.Source{ebpf.SourceK, ebpf.SourceX} {
				op := field | uint8(src) | uint8(class)
				mustFail(t, xdp(
					ebpf.Mov64Imm(ebpf.R0, 1),
					ebpf.Instruction{Opcode: op, Dst: ebpf.R0, Src: ebpf.R0, Imm: 1, Offset: 1},
					ebpf.Mov64Imm(ebpf.R0, 2),
					ebpf.Exit(),
				), fmt.Sprintf("unknown opcode %#02x", op))
			}
		}
	}
}

// boundary values the random intervals are drawn around: the edges of both
// operand widths and of the transfer function's own case splits.
var intervalEdges = []uint64{
	0, 1, 2, 31, 32, 63, 64, 255, 0x7fffffff, 0x80000000, 0xffffffff, 1 << 32, 1<<32 + 1,
	1<<62 - 1, 1 << 62, 1<<62 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0),
}

// randInterval returns a scalar interval and a concrete value inside it. One
// in four is a known constant; the rest span from a boundary-biased low end
// over a width that is tiny, straddles a boundary, or is arbitrary.
func randInterval(rng *rand.Rand) (RegState, uint64) {
	pick := func() uint64 {
		if rng.Intn(3) == 0 {
			return rng.Uint64()
		}
		return intervalEdges[rng.Intn(len(intervalEdges))] + uint64(rng.Intn(5)) - 2
	}
	lo, hi := pick(), pick()
	switch rng.Intn(4) {
	case 0:
		hi = lo
	case 1:
		hi = lo + uint64(rng.Intn(70))
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	x := lo
	if span := hi - lo; span == ^uint64(0) {
		x = rng.Uint64()
	} else if span > 0 {
		switch rng.Intn(3) {
		case 0:
			x = hi
		case 1:
			x = lo + rng.Uint64()%(span+1)
		}
	}
	return RegState{Type: Scalar, UMin: lo, UMax: hi}, x
}

// TestScalarTransferContainsTable holds the verifier's abstract scalar
// arithmetic to the concrete table (ROADMAP item 3): for random intervals a
// and b and concrete x in a, y in b, what alu leaves in the destination must
// contain ebpf.EvalALU(op, is32, x, y) — for every ALU op, both widths and
// both operand forms, known operands, intervals straddling 1<<32 and 1<<62,
// and shift counts at and past the width included. The same draws hold
// decide to ebpf.EvalJump: a comparison it calls statically decided must come
// out that way on x and y.
func TestScalarTransferContainsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	v := &checker{}
	aluOps := []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUDiv, ebpf.ALUOr, ebpf.ALUAnd,
		ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUNeg, ebpf.ALUMod, ebpf.ALUXor, ebpf.ALUMov, ebpf.ALUArsh, ebpf.ALUEnd}
	jumpOps := []ebpf.JumpOp{ebpf.JumpEq, ebpf.JumpGT, ebpf.JumpGE, ebpf.JumpSet, ebpf.JumpNE, ebpf.JumpSGT,
		ebpf.JumpSGE, ebpf.JumpLT, ebpf.JumpLE, ebpf.JumpSLT, ebpf.JumpSLE}
	swapWidths := []int32{16, 32, 64, 8, 0}
	for i := 0; i < 20000; i++ {
		a, x := randInterval(rng)
		b, y := randInterval(rng)
		imm := int32(rng.Uint32())
		if rng.Intn(2) == 0 {
			imm = int32(intervalEdges[rng.Intn(12)])
		}
		for _, is32 := range []bool{false, true} {
			for _, op := range aluOps {
				for _, reg := range []bool{true, false} {
					ins := ebpf.ALU64Reg(op, ebpf.R1, ebpf.R2)
					src := y
					if !reg {
						ins = ebpf.ALU64Imm(op, ebpf.R1, imm)
						src = uint64(int64(imm))
					}
					if op == ebpf.ALUEnd {
						ins.Imm = swapWidths[rng.Intn(len(swapWidths))]
						src = uint64(int64(ins.Imm))
					}
					if is32 {
						ins.Opcode = ins.Opcode&^0x07 | uint8(ebpf.ClassALU)
					}
					st := &state{}
					st.regs[1], st.regs[2] = a, b
					if err := v.alu(st, ins); err != nil {
						t.Fatalf("%s on %v, %v: %v", ebpf.Mnemonic(ins), a, b, err)
					}
					want, _ := ebpf.EvalALU(op, is32, x, src)
					if got := st.regs[1]; got.Type != Scalar || want < got.UMin || want > got.UMax {
						t.Fatalf("%s: dst in [%#x,%#x] (x=%#x), src in [%#x,%#x] (y=%#x): table says %#x, transfer says [%#x,%#x]",
							ebpf.Mnemonic(ins), a.UMin, a.UMax, x, b.UMin, b.UMax, src, want, got.UMin, got.UMax)
					}
				}
			}
			ta, tb := a, b
			if is32 {
				ta, tb = trunc32(a), trunc32(b) // as scalarBranch does
			}
			for _, op := range jumpOps {
				decided, outcome := decide(op, ta, tb)
				if taken, _ := ebpf.EvalJump(op, is32, x, y); decided && taken != outcome {
					t.Fatalf("%s is32=%v: a in [%#x,%#x] (x=%#x), b in [%#x,%#x] (y=%#x): decided %v, table says %v",
						op, is32, a.UMin, a.UMax, x, b.UMin, b.UMax, y, outcome, taken)
				}
			}
		}
	}
}
