package ebpf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		ins                              Instruction
		wide, exit, call, atomic, branch bool
	}{
		{Mov64Imm(R1, 7), false, false, false, false, false},
		{LoadImm64(R3, 0xf0000000), true, false, false, false, false},
		{Exit(), false, true, false, false, false},
		{Call(1), false, false, true, false, false},
		{Atomic(SizeDW, AtomicAdd, R0, 16, R1), false, false, false, true, false},
		{JumpImm(JumpEq, R1, 0, 4), false, false, false, false, true},
		{Jump(3), false, false, false, false, false}, // uncond, not cond
	}
	for i, c := range cases {
		if got := c.ins.IsWide(); got != c.wide {
			t.Errorf("case %d IsWide = %v", i, got)
		}
		if got := c.ins.IsExit(); got != c.exit {
			t.Errorf("case %d IsExit = %v", i, got)
		}
		if got := c.ins.IsCall(); got != c.call {
			t.Errorf("case %d IsCall = %v", i, got)
		}
		if got := c.ins.IsAtomic(); got != c.atomic {
			t.Errorf("case %d IsAtomic = %v", i, got)
		}
		if got := c.ins.IsCondJump(); got != c.branch {
			t.Errorf("case %d IsCondJump = %v", i, got)
		}
	}
	if !Jump(1).IsUncondJump() || !Jump(1).Terminates() {
		t.Error("ja should be unconditional and terminate fallthrough")
	}
	if !Exit().Terminates() {
		t.Error("exit should terminate fallthrough")
	}
}

func TestSizeBytesRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		s, ok := SizeForBytes(n)
		if !ok || s.Bytes() != n {
			t.Errorf("SizeForBytes(%d) = %v,%v", n, s, ok)
		}
	}
	if _, ok := SizeForBytes(3); ok {
		t.Error("SizeForBytes(3) should fail")
	}
}

func TestOpcodePacking(t *testing.T) {
	ins := ALU64Imm(ALULsh, R8, 32)
	if ins.Class() != ClassALU64 || ins.ALUOpField() != ALULsh || ins.SourceField() != SourceK {
		t.Fatalf("bad packing: %+v", ins)
	}
	ins = Jump32Reg(JumpLT, R1, R2, -4)
	if ins.Class() != ClassJMP32 || ins.JumpOpField() != JumpLT || ins.SourceField() != SourceX {
		t.Fatalf("bad packing: %+v", ins)
	}
	ld := LoadMem(SizeH, R1, R0, 0x24)
	if ld.Class() != ClassLDX || ld.SizeField() != SizeH || ld.ModeField() != ModeMEM {
		t.Fatalf("bad packing: %+v", ld)
	}
}

// randInsn generates a random valid instruction for property tests.
func randInsn(r *rand.Rand) Instruction {
	regs := []Register{R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10}
	reg := func() Register { return regs[r.Intn(len(regs))] }
	off := int16(r.Intn(512) - 256)
	imm := int32(r.Int63())
	sizes := []Size{SizeB, SizeH, SizeW, SizeDW}
	alus := []ALUOp{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUMod, ALUXor, ALUMov, ALUArsh}
	jmps := []JumpOp{JumpEq, JumpGT, JumpGE, JumpSet, JumpNE, JumpSGT, JumpSGE, JumpLT, JumpLE, JumpSLT, JumpSLE}
	switch r.Intn(10) {
	case 0:
		return ALU64Reg(alus[r.Intn(len(alus))], reg(), reg())
	case 1:
		return ALU64Imm(alus[r.Intn(len(alus))], reg(), imm)
	case 2:
		return ALU32Imm(alus[r.Intn(len(alus))], reg(), imm)
	case 3:
		return LoadImm64(reg(), r.Int63())
	case 4:
		return LoadMem(sizes[r.Intn(4)], reg(), reg(), off)
	case 5:
		return StoreMem(sizes[r.Intn(4)], reg(), off, reg())
	case 6:
		return StoreImm(sizes[r.Intn(4)], reg(), off, imm)
	case 7:
		return JumpImm(jmps[r.Intn(len(jmps))], reg(), imm, off)
	case 8:
		return Atomic([]Size{SizeW, SizeDW}[r.Intn(2)], AtomicAdd, reg(), off, reg())
	default:
		return Call(int32(r.Intn(16)))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		p := &Program{Name: "prop"}
		for i := 0; i < count; i++ {
			p.Insns = append(p.Insns, randInsn(r))
		}
		p.Insns = append(p.Insns, Exit())
		got, err := Decode(p.Encode())
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		if len(got) != len(p.Insns) {
			return false
		}
		for i := range got {
			a, b := got[i], p.Insns[i]
			if a.Opcode != b.Opcode || a.Dst != b.Dst || a.Src != b.Src || a.Offset != b.Offset || a.Imm != b.Imm {
				return false
			}
			if a.IsWide() && a.Imm64 != b.Imm64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 7)); err == nil {
		t.Error("want error for non-multiple-of-8 input")
	}
	wide := LoadImm64(R1, 1)
	raw := (&Program{Insns: []Instruction{wide}}).Encode()
	if _, err := Decode(raw[:8]); err == nil {
		t.Error("want error for truncated lddw")
	}
}

func TestNIAndSlots(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R0, 0),
		LoadImm64(R1, 0xdeadbeefcafe),
		Exit(),
	}}
	if got := p.NI(); got != 4 {
		t.Fatalf("NI = %d, want 4 (lddw counts twice)", got)
	}
	idx := p.SlotIndex()
	want := []int{0, 1, 3, 4}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("SlotIndex = %v, want %v", idx, want)
		}
	}
}

func TestBranchTargetAcrossWide(t *testing.T) {
	// if r1 == 0 goto exit; lddw r2; mov r0; exit
	p := &Program{Insns: []Instruction{
		JumpImm(JumpEq, R1, 0, 3), // slot 0, target slot 4
		LoadImm64(R2, 1),          // slots 1-2
		Mov64Imm(R0, 0),           // slot 3
		Exit(),                    // slot 4
	}}
	if got := p.BranchTarget(0); got != 3 {
		t.Fatalf("BranchTarget = %d, want element 3", got)
	}
}

func TestEditableDeleteFixesOffsets(t *testing.T) {
	p := &Program{Insns: []Instruction{
		JumpImm(JumpEq, R1, 0, 3), // → exit
		Mov64Imm(R2, 1),           // dead, will be deleted
		Mov64Imm(R3, 2),
		Mov64Imm(R0, 0),
		Exit(),
	}}
	e, err := MakeEditable(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Sweep([]bool{false, true, false, false, false})
	q, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if q.NI() != 4 {
		t.Fatalf("NI = %d, want 4", q.NI())
	}
	if got := q.BranchTarget(0); got != 3 {
		t.Fatalf("post-delete target = %d, want 3 (exit)", got)
	}
	if q.Insns[0].Offset != 2 {
		t.Fatalf("offset = %d, want 2", q.Insns[0].Offset)
	}
}

// TestEditableSpliceInsertsBefore pins an insertion's branch rule: a branch
// into the element an insertion precedes lands on the inserted instruction,
// and a branch that skipped the element still skips it.
func TestEditableSpliceInsertsBefore(t *testing.T) {
	p := &Program{Insns: []Instruction{
		JumpImm(JumpNE, R1, 0, 1), // → exit
		Mov64Imm(R0, 1),
		Exit(),
	}}
	e, err := MakeEditable(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Splice([]Edit{{Start: 1, End: 1, Repl: []Instruction{Mov64Imm(R2, 9)}}})
	q, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// Branch skipped the mov; after insertion it must skip both.
	if got := q.BranchTarget(0); got != 3 {
		t.Fatalf("target = %d, want 3", got)
	}

	e, err = MakeEditable(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Splice([]Edit{{Start: 2, End: 2, Repl: []Instruction{Mov64Imm(R2, 9)}}})
	if q, err = e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := q.BranchTarget(0); got != 2 || q.Insns[2] != Mov64Imm(R2, 9) {
		t.Fatalf("target = %d (%s), want the inserted mov at 2", got, Mnemonic(q.Insns[got]))
	}
}

func TestEditableDeleteAcrossWide(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R4, 5),
		JumpImm(JumpEq, R1, 0, 4), // over lddw(2)+mov(1)+mov(1) → exit
		LoadImm64(R2, 0x1122334455),
		Mov64Imm(R3, 1),
		Mov64Imm(R0, 0),
		Exit(),
	}}
	e, err := MakeEditable(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Target[1] != 5 {
		t.Fatalf("target elem = %d, want 5", e.Target[1])
	}
	e.Sweep([]bool{false, false, false, true, false, false})
	q, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := q.BranchTarget(1); got != 4 || !q.Insns[4].IsExit() {
		t.Fatalf("target = %d (%s)", got, Mnemonic(q.Insns[got]))
	}
}

// TestMakeEditableTargets pins which slots a branch may land on: the start of
// any element including the last, never the second slot of an lddw, never
// outside the program (the slot one past the end included). Targets and the
// Layout slot table must agree.
func TestMakeEditableTargets(t *testing.T) {
	// Slots: 0 branch, 1-2 lddw, 3 mov, 4 exit.
	prog := func(off int16) *Program {
		return &Program{Name: "t", Insns: []Instruction{
			JumpImm(JumpEq, R1, 0, off),
			LoadImm64(R2, 0x1122334455),
			Mov64Imm(R0, 0),
			Exit(),
		}}
	}
	for _, tc := range []struct {
		name   string
		off    int16
		target int // element index, -1 for an error
	}{
		{"next element", 0, 1},
		{"second slot of lddw", 1, -1},
		{"after lddw", 2, 2},
		{"last slot", 3, 3},
		{"one past the end", 4, -1},
		{"far past the end", 100, -1},
		{"itself", -1, 0},
		{"before the start", -2, -1},
	} {
		p := prog(tc.off)
		lay := p.Layout()
		if got, ok := lay.ElemAt(lay.JumpSlot(0, p.Insns[0])); got != tc.target || ok != (tc.target >= 0) {
			t.Errorf("%s: layout resolves element %d (%v), want %d", tc.name, got, ok, tc.target)
		}
		e, err := MakeEditable(p)
		if tc.target < 0 {
			want := fmt.Sprintf("ebpf: t: branch at 0 targets invalid slot %d", 1+int(tc.off))
			if err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", tc.name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if e.Target[0] != tc.target {
			t.Errorf("%s: target element %d, want %d", tc.name, e.Target[0], tc.target)
		}
		for i := 1; i < len(e.Target); i++ {
			if e.Target[i] != -1 {
				t.Errorf("%s: non-branch %d has target %d", tc.name, i, e.Target[i])
			}
		}
	}
}

func TestMnemonics(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Mov64Imm(R1, 1), "r1 = 1"},
		{Mov32Reg(R0, R0), "w0 = w0"},
		{LoadMem(SizeB, R2, R0, 0x25), "r2 = *(u8 *)(r0 + 37)"},
		{StoreImm(SizeW, R10, -4, 0), "*(u32 *)(r10 - 4) = 0"},
		{StoreMem(SizeDW, R10, -64, R1), "*(u64 *)(r10 - 64) = r1"},
		{Atomic(SizeDW, AtomicAdd, R0, 16, R1), "lock *(u64 *)(r0 + 16) += r1"},
		{ALU64Imm(ALULsh, R8, 32), "r8 <<= 32"},
		{ALU64Imm(ALURsh, R8, 60), "r8 >>= 60"},
		{JumpImm(JumpGT, R3, 54, 7), "if r3 > 54 goto +7"},
		{Call(1), "call 1"},
		{Exit(), "exit"},
		{LoadImm64(R3, 0xf0000000), "r3 = 0xf0000000 ll"},
	}
	for _, c := range cases {
		if got := Mnemonic(c.ins); got != c.want {
			t.Errorf("Mnemonic(%+v) = %q, want %q", c.ins, got, c.want)
		}
	}
}

func TestDisassembleSlotNumbers(t *testing.T) {
	p := &Program{Insns: []Instruction{LoadImm64(R1, 5), Mov64Imm(R0, 0), Exit()}}
	out := Disassemble(p)
	for _, want := range []string{"   0: r1 = 0x5 ll", "   2: r0 = 0", "   3: exit"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterString(t *testing.T) {
	if R10.String() != "r10" || PseudoReg.String() != "r?" {
		t.Error("register String broken")
	}
	if !R10.Valid() || PseudoReg.Valid() {
		t.Error("register Valid broken")
	}
}
