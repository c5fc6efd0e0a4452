package verifier

import (
	"strings"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

func verify(t *testing.T, p *ebpf.Program) Stats {
	t.Helper()
	return Verify(p, Options{})
}

func mustPass(t *testing.T, p *ebpf.Program) Stats {
	t.Helper()
	st := verify(t, p)
	if !st.Passed {
		t.Fatalf("rejected: %v\n%s", st.Err, ebpf.Disassemble(p))
	}
	return st
}

func mustFail(t *testing.T, p *ebpf.Program, frag string) {
	t.Helper()
	st := verify(t, p)
	if st.Passed {
		t.Fatalf("accepted but should fail (%s):\n%s", frag, ebpf.Disassemble(p))
	}
	if !strings.Contains(st.Err.Error(), frag) {
		t.Fatalf("err = %v, want containing %q", st.Err, frag)
	}
}

func xdp(insns ...ebpf.Instruction) *ebpf.Program {
	return &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, Insns: insns}
}

func TestAcceptsTrivialProgram(t *testing.T) {
	st := mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	))
	if st.NPI != 2 {
		t.Fatalf("NPI = %d, want 2", st.NPI)
	}
}

func TestRejectsUninitR0AtExit(t *testing.T) {
	mustFail(t, xdp(ebpf.Exit()), "R0 !read_ok")
}

func TestRejectsUninitializedRegisterUse(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	), "R3 !read_ok")
}

func TestRejectsWriteToFramePointer(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R10, 0),
		ebpf.Exit(),
	), "frame pointer is read only")
}

func TestRejectsMissingExit(t *testing.T) {
	mustFail(t, xdp(ebpf.Mov64Imm(ebpf.R0, 0)), "does not end with exit")
}

func TestStackReadBeforeWriteRejected(t *testing.T) {
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R10, -8),
		ebpf.Exit(),
	), "uninitialized stack")
}

func TestStackWriteThenReadOK(t *testing.T) {
	mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 7),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R1),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R0, ebpf.R10, -8),
		ebpf.Exit(),
	))
}

func TestStackOutOfRangeRejected(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 7),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -520, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "invalid stack write")
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 7),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, 0, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "invalid stack write")
}

func TestPacketAccessRequiresBoundsCheck(t *testing.T) {
	// Unchecked packet load must be rejected...
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 0),
		ebpf.Exit(),
	), "invalid access to packet")
	// ...and accepted once proven in bounds.
	mustPass(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0), // data
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8), // data_end
		ebpf.Mov64Reg(ebpf.R4, ebpf.R2),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, 14),
		ebpf.JumpReg(ebpf.JumpGT, ebpf.R4, ebpf.R3, 2),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 13),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	))
	// Access past the proven region still rejected.
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.Mov64Reg(ebpf.R4, ebpf.R2),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, 14),
		ebpf.JumpReg(ebpf.JumpGT, ebpf.R4, ebpf.R3, 2),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 14), // one past
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	), "invalid access to packet")
}

func TestCtxBoundsAndAlignment(t *testing.T) {
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 16), // past xdp_md
		ebpf.Exit(),
	), "invalid ctx access")
	mustFail(t, xdp(
		ebpf.LoadMem(ebpf.SizeW, ebpf.R0, ebpf.R1, 2), // misaligned
		ebpf.Exit(),
	), "misaligned ctx access")
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R2, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R1, 0, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "read-only")
}

func mapProg(insns ...ebpf.Instruction) *ebpf.Program {
	p := xdp(insns...)
	p.Maps = []ebpf.MapSpec{{Name: "m", Kind: 0, KeySize: 4, ValueSize: 8, MaxEntries: 4}}
	return p
}

func lookupSeq() []ebpf.Instruction {
	return []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R1),
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(helpers.MapLookupElem),
	}
}

func TestMapLookupNullCheckEnforced(t *testing.T) {
	// Deref without null check → reject.
	mustFail(t, mapProg(append(lookupSeq(),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
	)...), "map_value_or_null")
	// With null check → accept.
	mustPass(t, mapProg(append(lookupSeq(),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
	)...))
}

func TestNullCheckPropagatesThroughSpill(t *testing.T) {
	// Spill the or-null pointer, null-check the register, reload the spill:
	// the reloaded copy must be usable (ID-based resolution).
	mustPass(t, mapProg(append(lookupSeq(),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -16, ebpf.R0),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R10, -16),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R6, 0),
		ebpf.Exit(),
	)...))
}

func TestMapValueBounds(t *testing.T) {
	mustFail(t, mapProg(append(lookupSeq(),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 8), // past value
		ebpf.Exit(),
	)...), "invalid access to map value")
}

func TestHelperArgTypeChecking(t *testing.T) {
	// Key pointer is uninitialized stack.
	mustFail(t, mapProg(
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(helpers.MapLookupElem),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "uninitialized stack")
	// R1 is not a map pointer.
	mustFail(t, mapProg(
		ebpf.Mov64Imm(ebpf.R1, 5),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Call(helpers.MapLookupElem),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "expected=map_ptr")
}

func TestHelperHookGating(t *testing.T) {
	// probe_read is not available to XDP programs.
	mustFail(t, xdp(
		ebpf.Mov64Reg(ebpf.R1, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, -8),
		ebpf.Mov64Imm(ebpf.R2, 8),
		ebpf.Mov64Imm(ebpf.R3, 0),
		ebpf.Call(helpers.ProbeRead),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "program type")
	// It is available to kprobes, and initializes its destination.
	p := &ebpf.Program{Name: "k", Hook: ebpf.HookKprobe, Insns: []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R1, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, -8),
		ebpf.Mov64Imm(ebpf.R2, 8),
		ebpf.Mov64Imm(ebpf.R3, 0),
		ebpf.Call(helpers.ProbeRead),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R10, -8),
		ebpf.Exit(),
	}}
	mustPass(t, p)
}

func TestCallClobbersCallerSaved(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Call(helpers.KtimeGetNS),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3), // clobbered
		ebpf.Exit(),
	), "R3 !read_ok")
}

func TestRejectsUnknownHelperAndBadMapIndex(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Call(999),
		ebpf.Exit(),
	), "invalid func")
	mustFail(t, xdp(
		ebpf.LoadMapPtr(ebpf.R1, 3), // no maps declared
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "bad map index")
}

func TestAtomicRestrictedToStackAndMapValue(t *testing.T) {
	mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R10, -8, ebpf.R2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	))
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R1, 0, ebpf.R2), // ctx
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "not allowed")
}

func TestBoundedLoopTerminates(t *testing.T) {
	st := mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1), // loop:
		ebpf.JumpImm(ebpf.JumpLT, ebpf.R1, 8, -2),
		ebpf.Exit(),
	))
	// Eight iterations walked: NPI reflects the unrolled traversal.
	if st.NPI < 16 {
		t.Fatalf("NPI = %d, want the loop walked", st.NPI)
	}
}

func TestComplexityLimit(t *testing.T) {
	p := xdp(
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1),
		ebpf.JumpImm(ebpf.JumpLT, ebpf.R1, 2_000_000, -2),
		ebpf.Exit(),
	)
	st := Verify(p, Options{Limits: Limits{MaxProcessedInsns: 10_000, MaxStates: 1000}})
	if st.Passed || !strings.Contains(st.Err.Error(), "too large") {
		t.Fatalf("err = %v", st.Err)
	}
}

func TestStatePruningReducesNPI(t *testing.T) {
	// Diamond control flow where both paths produce identical states: the
	// join must be walked once, not twice.
	prog := xdp(
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0), // unknown scalar... ctx load
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R2, 0, 1),
		ebpf.Jump(0),              // both arms converge with identical state
		ebpf.Mov64Imm(ebpf.R0, 0), // join (branch target → checkpoint)
		ebpf.Mov64Imm(ebpf.R3, 0),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Mov64Imm(ebpf.R5, 0),
		ebpf.Exit(),
	)
	st := mustPass(t, prog)
	// Without pruning the 5 post-join insns would be walked twice (NPI≥13);
	// with pruning the second path stops at the join.
	if st.NPI > 11 {
		t.Fatalf("NPI = %d: pruning did not deduplicate the join", st.NPI)
	}
	if st.TotalStates < 2 {
		t.Fatalf("TotalStates = %d", st.TotalStates)
	}
}

func TestVersionsDifferInStateAccounting(t *testing.T) {
	prog := mapProg(append(lookupSeq(),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
	)...)
	a := Verify(prog, Options{Version: V519})
	b := Verify(prog, Options{Version: V65})
	if !a.Passed || !b.Passed {
		t.Fatalf("both versions must accept: %v %v", a.Err, b.Err)
	}
	// Not asserting a direction — Table 5's point is instability — but both
	// must produce sane counters.
	if a.NPI == 0 || b.NPI == 0 || a.PeakStates == 0 || b.PeakStates == 0 {
		t.Fatal("missing stats")
	}
}

func TestLogOutput(t *testing.T) {
	st := Verify(xdp(
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	), Options{LogLevel: 4})
	if !strings.Contains(st.Log, "r0 = 2") || !strings.Contains(st.Log, "processed 2 insns") {
		t.Fatalf("log:\n%s", st.Log)
	}
}

func TestVarOffsetBoundedMapAccess(t *testing.T) {
	// idx = load & bounded via AND, then map value[idx] access.
	p := mapProg(append(lookupSeq(),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R4, ebpf.R1, 0), // hmm: R1 clobbered
		ebpf.Exit(),
	)...)
	_ = p
	// R1 was clobbered by the call: construct explicitly instead.
	prog := mapProg(
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R1),
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(helpers.MapLookupElem),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R4, ebpf.R6, 0), // scalar from ctx? no: ctx off 0 is pkt ptr (size 4 → scalar)
		ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R4, 7),        // bound to [0,7]
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R4),  // value + idx
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R0, 0), // within 8-byte value
		ebpf.Exit(),
	)
	mustPass(t, prog)
	// Without the AND the access must be rejected.
	bad := mapProg(
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R1),
		ebpf.LoadMapPtr(ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(helpers.MapLookupElem),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R4, ebpf.R6, 0),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R4),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
	)
	st := verify(t, bad)
	if st.Passed {
		t.Fatal("unbounded variable map access accepted")
	}
}

func TestUnreachableCodeRejected(t *testing.T) {
	mustFail(t, xdp(
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1), // unreachable
		ebpf.Exit(),
	), "unreachable insn")
}

func TestBswapVerifies(t *testing.T) {
	mustPass(t, xdp(
		ebpf.Mov64Imm(ebpf.R0, 0x1234),
		ebpf.Instruction{Opcode: uint8(ebpf.ClassALU) | uint8(ebpf.SourceX) | uint8(ebpf.ALUEnd), Dst: ebpf.R0, Imm: 16},
		ebpf.Exit(),
	))
	// Byte swap of a pointer is rejected.
	mustFail(t, xdp(
		ebpf.Instruction{Opcode: uint8(ebpf.ClassALU) | uint8(ebpf.SourceX) | uint8(ebpf.ALUEnd), Dst: ebpf.R1, Imm: 32},
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	), "byte swap on non-scalar")
}

// TestBadBranchTargetRejectionPinned pins the verifier's rejection text for
// a branch into the second slot of an lddw, to slot -1, and to the slot one
// past the end.
func TestBadBranchTargetRejectionPinned(t *testing.T) {
	wide := ebpf.LoadImm64(ebpf.R0, 0x1234) // slots 1-2 after a branch at 0
	for _, tc := range []struct {
		branch ebpf.Instruction
		want   string
	}{
		{ebpf.Jump(1), "ebpf: t: branch at 0 targets invalid slot 2"},
		{ebpf.Jump(-2), "ebpf: t: branch at 0 targets invalid slot -1"},
		{ebpf.Jump(3), "ebpf: t: branch at 0 targets invalid slot 4"},
		{ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 0, 1), "ebpf: t: branch at 0 targets invalid slot 2"},
		{ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 0, -2), "ebpf: t: branch at 0 targets invalid slot -1"},
		{ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 0, 3), "ebpf: t: branch at 0 targets invalid slot 4"},
	} {
		st := verify(t, xdp(tc.branch, wide, ebpf.Exit()))
		if st.Passed || st.Err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", ebpf.Mnemonic(tc.branch), st.Err, tc.want)
		}
	}
}
