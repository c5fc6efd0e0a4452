package verifier

import (
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

func TestPointerArithmeticRules(t *testing.T) {
	// Multiplying a pointer is prohibited.
	mustFail(t, xdp(
		ebpf.ALU64Imm(ebpf.ALUMul, ebpf.R1, 4),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "pointer arithmetic")
	// 32-bit arithmetic on pointers is prohibited.
	mustFail(t, xdp(
		ebpf.ALU32Imm(ebpf.ALUAdd, ebpf.R1, 4),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "32-bit arithmetic on pointer")
	// Pointer + pointer is prohibited.
	mustFail(t, xdp(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R1, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "pointer + pointer")
	// Subtracting an unbounded scalar from a pointer is prohibited.
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0),
		ebpf.ALU64Reg(ebpf.ALUSub, ebpf.R1, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "unbounded scalar")
	// Adding a bounded scalar to a pointer is fine.
	mustPass(t, xdp(
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0),
		ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R2, 7),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -16, ebpf.R4),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R4),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R3, ebpf.R2),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R3, 0),
		ebpf.Exit(),
	))
}

func TestPointerComparisonRules(t *testing.T) {
	// Comparing a plain pointer against a non-zero constant is prohibited.
	mustFail(t, xdp(
		ebpf.JumpImm(ebpf.JumpGT, ebpf.R1, 5, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	), "pointer comparison prohibited")
	// Same-type pointer comparisons are allowed.
	mustPass(t, xdp(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.JumpReg(ebpf.JumpEq, ebpf.R2, ebpf.R10, 1),
		ebpf.Jump(0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	))
}

func TestStorePointerRules(t *testing.T) {
	// Spilling a pointer to the stack is fine (full-width, aligned).
	mustPass(t, xdp(
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R1),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R10, -8),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R0, ebpf.R2, 0), // reloaded ctx ptr works
		ebpf.Exit(),
	))
	// Partial-width pointer stores are prohibited.
	mustFail(t, xdp(
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -8, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "partial-width")
	// Storing a pointer into the packet is prohibited.
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.Mov64Reg(ebpf.R4, ebpf.R2),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, 8),
		ebpf.JumpReg(ebpf.JumpGT, ebpf.R4, ebpf.R3, 2),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R2, 0, ebpf.R10),
		ebpf.Jump(0),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	), "storing pointer to packet")
}

func TestScalarBranchDecidability(t *testing.T) {
	// A branch whose outcome is provable explores one arm only; the other
	// arm is still reachable via the CFG (no unreachable-insn error) but
	// contributes nothing to NPI.
	st := mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 10),
		ebpf.JumpImm(ebpf.JumpGT, ebpf.R1, 5, 2), // always taken
		ebpf.Mov64Imm(ebpf.R0, 0),                // reachable per CFG, never walked
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	))
	if st.NPI != 4 {
		t.Fatalf("NPI = %d, want 4 (single-arm exploration)", st.NPI)
	}
}

func TestJmp32ScalarBranch(t *testing.T) {
	mustPass(t, xdp(
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0),
		ebpf.Jump32Imm(ebpf.JumpLT, ebpf.R2, 10, 1),
		ebpf.Jump(0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	))
}

func TestMapUpdateSignature(t *testing.T) {
	p := mapProg(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R1, 7),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -16, ebpf.R1),
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(helpers.MapUpdateElem),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	)
	mustPass(t, p)
	// Value region uninitialized → reject.
	bad := mapProg(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R1),
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(helpers.MapUpdateElem),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	)
	mustFail(t, bad, "uninitialized stack")
}

func TestNullCheckEqBranch(t *testing.T) {
	// "if r0 == 0 goto miss" — the fallthrough is the non-null arm.
	mustPass(t, mapProg(append(lookupSeq(),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 2),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	)...))
}

func TestJumpOutOfRange(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 50),
		ebpf.Exit(),
	), "")
}

func TestStackAtomicRequiresInit(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R10, -8, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "uninitialized stack")
	// Misaligned atomics rejected.
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -16, ebpf.R1),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R10, -12, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "misaligned atomic")
}

func TestPerfEventOutputSignature(t *testing.T) {
	p := &ebpf.Program{
		Name: "p", Hook: ebpf.HookTracepoint,
		Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R3, 0x11),
			ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R3),
			ebpf.LoadMapPtr(ebpf.R2, 0),
			ebpf.Mov64Imm(ebpf.R3, 0),
			ebpf.Mov64Reg(ebpf.R4, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, -8),
			ebpf.Mov64Imm(ebpf.R5, 8),
			ebpf.Call(helpers.PerfEventOutput),
			ebpf.Mov64Imm(ebpf.R0, 0),
			ebpf.Exit(),
		},
		Maps: []ebpf.MapSpec{{Name: "ev", Kind: 3, KeySize: 0, ValueSize: 64, MaxEntries: 8}},
	}
	// R1 must be the context: not set → NotInit at entry (R1 holds ctx
	// initially, but gets clobbered by LoadMapPtr into R2? No: R1 is ctx
	// throughout). This program leaves R1 as ctx: accepted.
	mustPass(t, p)

	bad := p.Clone()
	bad.Insns = append([]ebpf.Instruction{ebpf.Mov64Imm(ebpf.R1, 5)}, bad.Insns...)
	mustFail(t, bad, "expected=ctx")
}

func TestVerifierLogProcessedLine(t *testing.T) {
	st := Verify(xdp(
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	), Options{LogLevel: 4})
	if st.Log == "" {
		t.Fatal("log empty at LogLevel 4")
	}
	if Verify(xdp(ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit()), Options{}).Log != "" {
		t.Fatal("log should be empty by default")
	}
}

// TestQuietVerifyAllocatesNothingPerInstruction: with the log off nothing is
// formatted per processed instruction — a straight-line program verifies in
// far fewer allocations than it has instructions, and one four times as long
// does not allocate more per instruction.
func TestQuietVerifyAllocatesNothingPerInstruction(t *testing.T) {
	line := func(n int) *ebpf.Program {
		insns := make([]ebpf.Instruction, 0, 2*n+2)
		insns = append(insns, ebpf.Mov64Imm(ebpf.R0, 0))
		for i := 0; i < n; i++ {
			insns = append(insns,
				ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, int16(8*(i%2))),
				ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R2))
		}
		insns = append(insns, ebpf.Exit())
		return &ebpf.Program{Name: "line", Hook: ebpf.HookTracepoint, Insns: insns}
	}
	allocs := func(p *ebpf.Program) float64 {
		return testing.AllocsPerRun(10, func() {
			if st := Verify(p, Options{}); !st.Passed {
				t.Fatal(st.Err)
			}
		})
	}
	small, big := line(1000), line(4000)
	a1, a4 := allocs(small), allocs(big)
	if a1 >= float64(len(small.Insns))/4 {
		t.Errorf("Verify of %d instructions made %.0f allocations: something is allocated per instruction", len(small.Insns), a1)
	}
	if a4/float64(len(big.Insns)) > a1/float64(len(small.Insns)) {
		t.Errorf("allocations per instruction rose with program size: %.0f for %d, %.0f for %d",
			a1, len(small.Insns), a4, len(big.Insns))
	}
}
