package analysis

import (
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

func TestCFGStraightLine(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Mov64Imm(ebpf.R1, 2),
		ebpf.Exit(),
	}}
	cfg, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(cfg.Blocks))
	}
	if len(cfg.Succs[0]) != 0 {
		t.Fatal("exit block has successors")
	}
}

func TestCFGBranching(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 0, 2), // b0 → b2, b1
		ebpf.Mov64Imm(ebpf.R0, 1),                // b1
		ebpf.Exit(),                              // b1 end
		ebpf.Mov64Imm(ebpf.R0, 2),                // b2
		ebpf.Exit(),
	}}
	cfg, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(cfg.Blocks))
	}
	if len(cfg.Succs[0]) != 2 {
		t.Fatalf("entry succs = %v", cfg.Succs[0])
	}
	if len(cfg.Preds[2]) != 1 || cfg.Preds[2][0] != 0 {
		t.Fatalf("preds of b2 = %v", cfg.Preds[2])
	}
}

func TestEffects(t *testing.T) {
	cases := []struct {
		ins  ebpf.Instruction
		uses []ebpf.Register
		defs []ebpf.Register
	}{
		{ebpf.Mov64Imm(ebpf.R1, 5), nil, []ebpf.Register{ebpf.R1}},
		{ebpf.Mov64Reg(ebpf.R1, ebpf.R2), []ebpf.Register{ebpf.R2}, []ebpf.Register{ebpf.R1}},
		{ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R1, ebpf.R2), []ebpf.Register{ebpf.R1, ebpf.R2}, []ebpf.Register{ebpf.R1}},
		{ebpf.LoadMem(ebpf.SizeW, ebpf.R3, ebpf.R4, 0), []ebpf.Register{ebpf.R4}, []ebpf.Register{ebpf.R3}},
		{ebpf.StoreMem(ebpf.SizeW, ebpf.R3, 0, ebpf.R4), []ebpf.Register{ebpf.R3, ebpf.R4}, nil},
		{ebpf.StoreImm(ebpf.SizeW, ebpf.R3, 0, 7), []ebpf.Register{ebpf.R3}, nil},
		{ebpf.Exit(), []ebpf.Register{ebpf.R0}, nil},
		{ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R1, 0, ebpf.R2), []ebpf.Register{ebpf.R1, ebpf.R2}, nil},
	}
	for _, c := range cases {
		e := InsnEffects(c.ins)
		for _, r := range c.uses {
			if !e.Uses.Has(r) {
				t.Errorf("%s: missing use %s", ebpf.Mnemonic(c.ins), r)
			}
		}
		for _, r := range c.defs {
			if !e.Defs.Has(r) {
				t.Errorf("%s: missing def %s", ebpf.Mnemonic(c.ins), r)
			}
		}
	}
	// Calls use declared args and clobber r0-r5.
	e := InsnEffects(ebpf.Call(helpers.MapLookupElem))
	if !e.Uses.Has(ebpf.R1) || !e.Uses.Has(ebpf.R2) || e.Uses.Has(ebpf.R3) {
		t.Errorf("call uses = %012b", e.Uses)
	}
	for r := ebpf.R0; r <= ebpf.R5; r++ {
		if !e.Defs.Has(r) {
			t.Errorf("call must clobber %s", r)
		}
	}
}

func TestLivenessDeadMov(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 1), // dead: overwritten below
		ebpf.Mov64Imm(ebpf.R1, 2),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	lo := Liveness(cfg)
	if lo[0].Has(ebpf.R1) {
		t.Error("r1 should be dead after the first mov")
	}
	if !lo[1].Has(ebpf.R1) {
		t.Error("r1 should be live after the second mov")
	}
	if !lo[2].Has(ebpf.R0) {
		t.Error("r0 must be live before exit")
	}
	if !lo[0].Has(ebpf.R10) {
		t.Error("frame pointer must always be live")
	}
}

func TestLivenessAcrossBranch(t *testing.T) {
	// r2 used only on one arm: still live-out of the branch.
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R2, 9),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 0, 2),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R2),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	lo := Liveness(cfg)
	if !lo[1].Has(ebpf.R2) {
		t.Error("r2 must be live across the branch")
	}
	if lo[4].Has(ebpf.R2) {
		t.Error("r2 must be dead on the fallthrough-free arm")
	}
}

func TestConstantsStraightLine(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 5),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 3),
		ebpf.ALU64Reg(ebpf.ALUMov, ebpf.R2, ebpf.R1),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R2),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	consts := Constants(cfg)
	if cv := consts[3][ebpf.R2]; !cv.Known || cv.Val != 8 {
		t.Fatalf("r2 before store = %+v, want 8", cv)
	}
}

func TestConstantsMergeAtJoin(t *testing.T) {
	// r1 = 1 on one path, 2 on the other: unknown at the join; r2 = 7 on
	// both: known at the join.
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R2, 7),
		ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R1, 1),
		ebpf.Jump(1),
		ebpf.Mov64Imm(ebpf.R1, 2),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R1), // join
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	consts := Constants(cfg)
	if consts[5][ebpf.R1].Known {
		t.Error("r1 must be unknown at the join")
	}
	if cv := consts[5][ebpf.R2]; !cv.Known || cv.Val != 7 {
		t.Errorf("r2 at join = %+v, want 7", cv)
	}
}

func TestConstantsLoop(t *testing.T) {
	// r1 changes in the loop: must converge to unknown inside it.
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 0),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R1, 1), // loop head
		ebpf.JumpImm(ebpf.JumpLT, ebpf.R1, 10, -2),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	consts := Constants(cfg)
	if consts[1][ebpf.R1].Known {
		t.Error("loop-carried r1 must be unknown at the head")
	}
}

func TestConstantsCallClobbers(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 5),
		ebpf.Mov64Imm(ebpf.R6, 6),
		ebpf.Call(helpers.KtimeGetNS),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	consts := Constants(cfg)
	if consts[3][ebpf.R1].Known {
		t.Error("r1 must be clobbered by the call")
	}
	if cv := consts[3][ebpf.R6]; !cv.Known || cv.Val != 6 {
		t.Error("r6 must survive the call")
	}
}

func TestConstantsWideAndMapLoads(t *testing.T) {
	p := &ebpf.Program{Insns: []ebpf.Instruction{
		ebpf.LoadImm64(ebpf.R1, 0x1_0000_0001),
		ebpf.LoadMapPtr(ebpf.R2, 0),
		ebpf.Exit(),
	}}
	cfg, _ := BuildCFG(p)
	consts := Constants(cfg)
	if cv := consts[1][ebpf.R1]; !cv.Known || cv.Val != 0x1_0000_0001 {
		t.Error("lddw constant not tracked")
	}
	if consts[2][ebpf.R2].Known {
		t.Error("map pseudo loads are not constants")
	}
}

// An ALU op field the ISA does not define faults in the VM: constant
// propagation must not record its destination as a known value (it used to
// say 0, which CP&DCE would fold into a mov).
func TestConstantsUndefinedALUOpIsUnknown(t *testing.T) {
	for _, class := range []ebpf.Class{ebpf.ClassALU64, ebpf.ClassALU} {
		for _, field := range []uint8{0xe0, 0xf0} {
			p := &ebpf.Program{Insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R0, 1),
				{Opcode: field | uint8(class), Dst: ebpf.R0, Imm: 2},
				ebpf.Exit(),
			}}
			cfg, err := BuildCFG(p)
			if err != nil {
				t.Fatal(err)
			}
			if cv := Constants(cfg)[2][ebpf.R0]; cv.Known {
				t.Errorf("opcode %#02x: r0 after the undefined op = %+v, want unknown", p.Insns[1].Opcode, cv)
			}
		}
	}
}
