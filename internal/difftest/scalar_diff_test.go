package difftest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/verifier"
	"merlin/internal/vm"
)

// This file holds both VM engines to internal/ebpf's semantics table at the
// bytecode level. The IR-driven rig in vm_diff_test.go only ever sees the
// instructions codegen emits — three compare ops, no JMP32, almost no 32-bit
// ALU — so it cannot reach most of the table; here every defined ALU and
// compare op, at both widths and in both operand forms, runs as one
// instruction over a boundary lattice squared on vm.New, vm.NewRef and the
// table itself. The table's own values are pinned by
// ebpf.TestScalarSemanticsGolden.

// scalarLattice is the operand lattice of the sweep: shift counts at and
// around both widths, and the sign and width boundaries of 32 and 64 bits.
var scalarLattice = []uint64{
	0, 1, 2, 31, 32, 33, 63, 64, 65, 255,
	0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 1 << 32, 1<<32 + 1, 0xdead_beef_0000_0005,
	0x7fff_ffff_ffff_ffff, 0x8000_0000_0000_0000, 0xffff_ffff_ffff_ffff,
}

// scalarImms is the immediate lattice (sign-extended by the instruction).
var scalarImms = []int32{0, 1, -1, 5, 31, 32, 63, 64, 255, 0x7fff_ffff, -0x8000_0000}

var (
	scalarALUOps = []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUDiv, ebpf.ALUOr, ebpf.ALUAnd,
		ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUNeg, ebpf.ALUMod, ebpf.ALUXor, ebpf.ALUMov, ebpf.ALUArsh, ebpf.ALUEnd}
	scalarJumpOps = []ebpf.JumpOp{ebpf.JumpEq, ebpf.JumpGT, ebpf.JumpGE, ebpf.JumpSet, ebpf.JumpNE, ebpf.JumpSGT,
		ebpf.JumpSGE, ebpf.JumpLT, ebpf.JumpLE, ebpf.JumpSLT, ebpf.JumpSLE}
)

// scalarProgram wraps one ALU or conditional-jump instruction (dst r6, src r7
// or its immediate) into a tracepoint program: a and b arrive as the first two
// context words; r0 is the ALU result, or 1 when the jump was taken.
func scalarProgram(ins ebpf.Instruction) *ebpf.Program {
	ins.Dst, ins.Src = ebpf.R6, ebpf.R7
	insns := []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R7, ebpf.R1, 8),
	}
	if ins.Class().IsALU() {
		insns = append(insns, ins, ebpf.Mov64Reg(ebpf.R0, ebpf.R6), ebpf.Exit())
	} else {
		ins.Offset = 2
		insns = append(insns, ins,
			ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit(),
			ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit())
	}
	return &ebpf.Program{Name: "scalar", Hook: ebpf.HookTracepoint, Insns: insns}
}

// tableResult is what the semantics table says scalarProgram(ins) returns on
// (a, b); ok=false when the table does not define ins's op field.
func tableResult(ins ebpf.Instruction, a, b uint64) (uint64, bool) {
	src := uint64(int64(ins.Imm))
	if ins.Class().IsALU() {
		if ins.SourceField() == ebpf.SourceX && ins.ALUOpField() != ebpf.ALUEnd {
			src = b
		}
		return ebpf.EvalALU(ins.ALUOpField(), ins.Class() == ebpf.ClassALU, a, src)
	}
	if ins.SourceField() == ebpf.SourceX {
		src = b
	}
	taken, ok := ebpf.EvalJump(ins.JumpOpField(), ins.Class() == ebpf.ClassJMP32, a, src)
	if taken {
		return 1, ok
	}
	return 0, ok
}

// scalarPair loads scalarProgram(ins) on both engines.
func scalarPair(t testing.TB, ins ebpf.Instruction) *enginePair {
	t.Helper()
	p := newEnginePair(t, scalarProgram(ins), vm.Config{})
	if p.ref.Engine() != "ref" {
		t.Fatalf("vm.NewRef runs the %q engine", p.ref.Engine())
	}
	return p
}

// checkScalar runs (a, b) on both engines and holds r0, Stats and any fault
// to each other and r0 to the table.
func checkScalar(t testing.TB, p *enginePair, ins ebpf.Instruction, a, b uint64) {
	t.Helper()
	ins.Dst, ins.Src = ebpf.R6, ebpf.R7 // as scalarProgram runs it
	tag := fmt.Sprintf("%s a=%#x b=%#x", ebpf.Mnemonic(ins), a, b)
	ctx := vm.TracepointContext(a, b)
	rvF, stF, errF := p.fast.Run(ctx, nil)
	rvR, stR, errR := p.ref.Run(ctx, nil)
	sameFault(t, tag, errF, errR)
	if stF != stR {
		t.Fatalf("%s: stats diverged\nfast %+v\nref  %+v", tag, stF, stR)
	}
	want, defined := tableResult(ins, a, b)
	switch {
	case !defined && ins.Class().IsALU():
		re, ok := vm.AsRuntimeError(errF)
		if !ok || re.Kind != vm.FaultBadInstruction || re.PC != 2 {
			t.Fatalf("%s: undefined ALU op ran: r0=%#x err=%v", tag, uint64(rvF), errF)
		}
	case errF != nil:
		t.Fatalf("%s: %v", tag, errF)
	case uint64(rvF) != want || uint64(rvR) != want:
		// An undefined jump op is never taken: the table's 0.
		t.Fatalf("%s: r0 = %#x (fast), %#x (ref); the table says %#x", tag, uint64(rvF), uint64(rvR), want)
	}
}

// TestScalarSemanticsBytecodeSweep is the sweep described at the top of this
// file.
func TestScalarSemanticsBytecodeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	operands := append([]uint64(nil), scalarLattice...)
	for i := 0; i < 12; i++ {
		operands = append(operands, rng.Uint64())
	}
	sweep := func(ins ebpf.Instruction) {
		p := scalarPair(t, ins)
		for _, a := range operands {
			for _, b := range operands {
				checkScalar(t, p, ins, a, b)
			}
		}
	}
	for _, op := range scalarALUOps {
		if op == ebpf.ALUEnd {
			for _, width := range []int32{16, 32, 64} {
				sweep(ebpf.ALU64Imm(op, 0, width))
				sweep(ebpf.ALU32Imm(op, 0, width))
				toBE := ebpf.ALU32Reg(op, 0, 0) // the width still rides in imm
				toBE.Imm = width
				sweep(toBE)
			}
			continue
		}
		sweep(ebpf.ALU64Reg(op, 0, 0))
		sweep(ebpf.ALU32Reg(op, 0, 0))
		for _, imm := range scalarImms {
			sweep(ebpf.ALU64Imm(op, 0, imm))
			sweep(ebpf.ALU32Imm(op, 0, imm))
		}
	}
	for _, op := range scalarJumpOps {
		sweep(ebpf.JumpReg(op, 0, 0, 0))
		sweep(ebpf.Jump32Reg(op, 0, 0, 0))
		for _, imm := range scalarImms {
			sweep(ebpf.JumpImm(op, 0, imm, 0))
			sweep(ebpf.Jump32Imm(op, 0, imm, 0))
		}
	}
}

// FuzzScalarSemantics is the sweep on fuzzed opcodes and operands: opByte's
// two low bits choose the class, bit 3 the operand form and the high nibble
// the op field — defined or not. A defined op must verify and agree with the
// table on both engines; an undefined one must be rejected by the verifier
// and fault (ALU) or fall through (jump) identically on both engines.
func FuzzScalarSemantics(f *testing.F) {
	f.Add(uint8(0x00), uint64(1), uint64(2), int32(3))
	f.Add(uint8(0xc1), uint64(0x80000000), uint64(31), int32(31))
	f.Add(uint8(0x3a), uint64(0xdeadbeef00000009), uint64(0), int32(0))
	f.Add(uint8(0xd1), uint64(0x0102030405060708), uint64(0), int32(16))
	f.Add(uint8(0x62), uint64(0xffffffff), uint64(1<<32), int32(-1))
	f.Add(uint8(0xdb), uint64(1<<63), uint64(1), int32(5))
	f.Add(uint8(0xe0), uint64(1), uint64(2), int32(2))
	f.Add(uint8(0xfa), uint64(1), uint64(1), int32(1))
	f.Fuzz(func(t *testing.T, opByte uint8, a, b uint64, imm int32) {
		class := [...]ebpf.Class{ebpf.ClassALU64, ebpf.ClassALU, ebpf.ClassJMP, ebpf.ClassJMP32}[opByte&3]
		ins := ebpf.Instruction{Opcode: opByte&0xf8 | uint8(class), Imm: imm}
		if class.IsJump() {
			switch ins.JumpOpField() {
			case ebpf.JumpAlways, ebpf.JumpCall, ebpf.JumpExit:
				t.Skip() // not comparisons
			}
		}
		checkScalar(t, scalarPair(t, ins), ins, a, b)

		_, defined := tableResult(ins, a, b)
		st := verifier.Verify(scalarProgram(ins), verifier.Options{})
		switch {
		case defined && !st.Passed:
			t.Fatalf("%s: defined op rejected: %v", ebpf.Mnemonic(ins), st.Err)
		case !defined && st.Passed:
			t.Fatalf("opcode %#02x: undefined op verified", ins.Opcode)
		case !defined && !strings.Contains(st.Err.Error(), fmt.Sprintf("unknown opcode %#02x", ins.Opcode)):
			t.Fatalf("opcode %#02x: rejected for the wrong reason: %v", ins.Opcode, st.Err)
		}
	})
}
