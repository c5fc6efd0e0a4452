package guard

import (
	"errors"
	"strings"
	"testing"
	"time"

	"merlin/internal/ebpf"
	"merlin/internal/ir"
)

func TestExecCleanRun(t *testing.T) {
	ran := false
	if f := Exec("p", "bytecode", 0, func() error { ran = true; return nil }); f != nil {
		t.Fatalf("clean run reported failure: %v", f)
	}
	if !ran {
		t.Fatal("fn did not run")
	}
}

func TestExecContainsPanic(t *testing.T) {
	f := Exec("p", "ir", 0, func() error { panic("boom") })
	if f == nil || f.Kind != FailPanic {
		t.Fatalf("want panic failure, got %v", f)
	}
	if !strings.Contains(f.Detail, "boom") || f.Stack == "" {
		t.Fatalf("panic record incomplete: %+v", f)
	}
	if f.Pass != "p" || f.Tier != "ir" {
		t.Fatalf("wrong attribution: %+v", f)
	}
}

func TestExecReportsError(t *testing.T) {
	f := Exec("p", "bytecode", 0, func() error { return errors.New("nope") })
	if f == nil || f.Kind != FailError || f.Detail != "nope" {
		t.Fatalf("want error failure, got %v", f)
	}
}

func TestExecEnforcesTimeout(t *testing.T) {
	start := time.Now()
	f := Exec("p", "bytecode", 20*time.Millisecond, func() error {
		time.Sleep(2 * time.Second)
		return nil
	})
	if f == nil || f.Kind != FailTimeout {
		t.Fatalf("want timeout failure, got %v", f)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout did not cut the wait short")
	}
}

// tinyProg builds a minimal structurally valid program with one branch.
func tinyProg() *ebpf.Program {
	return &ebpf.Program{
		Name: "tiny", Hook: ebpf.HookTracepoint, MCPU: 2,
		Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R0, 1),
			ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 1),
			ebpf.Mov64Imm(ebpf.R0, 7),
			ebpf.Exit(),
		},
	}
}

func TestValidateProgramAcceptsWellFormed(t *testing.T) {
	if err := ValidateProgram(tinyProg()); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}
}

func TestValidateProgramRejections(t *testing.T) {
	empty := &ebpf.Program{Name: "empty"}
	if err := ValidateProgram(empty); err == nil {
		t.Error("empty program accepted")
	}

	fallsOff := tinyProg()
	fallsOff.Insns = fallsOff.Insns[:len(fallsOff.Insns)-1]
	if err := ValidateProgram(fallsOff); err == nil {
		t.Error("program falling off the end accepted")
	}

	badBranch := tinyProg()
	badBranch.Insns[1].Offset = 0x7fff
	if err := ValidateProgram(badBranch); err == nil {
		t.Error("out-of-range branch accepted")
	}

	// Fields the 8-byte encoding cannot carry: a register number above 15
	// and a 64-bit immediate on an instruction that is not a wide load.
	badReg := tinyProg()
	badReg.Insns[2].Dst = 20
	if err := ValidateProgram(badReg); err == nil {
		t.Error("Dst 20 accepted")
	}
	badImm := tinyProg()
	badImm.Insns[0].Imm64 = 1 << 40
	if err := ValidateProgram(badImm); err == nil {
		t.Error("Imm64 on a non-wide mov accepted")
	}
}

func TestInputsDeterministicAndHookShaped(t *testing.T) {
	a := Inputs(ebpf.HookXDP, 8, 3)
	b := Inputs(ebpf.HookXDP, 8, 3)
	if len(a) != 8 {
		t.Fatalf("want 8 inputs, got %d", len(a))
	}
	for i := range a {
		if string(a[i].Pkt) != string(b[i].Pkt) || string(a[i].Ctx) != string(b[i].Ctx) {
			t.Fatalf("input %d not deterministic", i)
		}
		if a[i].Pkt == nil {
			t.Fatalf("XDP input %d has no packet", i)
		}
	}
	tp := Inputs(ebpf.HookTracepoint, 4, 3)
	for i := range tp {
		if tp[i].Pkt != nil || len(tp[i].Ctx) != 64 {
			t.Fatalf("tracepoint input %d malformed", i)
		}
	}
}

func TestDiffProgramsCatchesDivergence(t *testing.T) {
	pre := tinyProg()
	inputs := Inputs(ebpf.HookTracepoint, 4, 9)
	if err := DiffPrograms(pre, pre.Clone(), inputs); err != nil {
		t.Fatalf("identical programs diverged: %v", err)
	}
	post := pre.Clone()
	post.Insns[2] = ebpf.Mov64Imm(ebpf.R0, 8)
	if err := DiffPrograms(pre, post, inputs); err == nil {
		t.Fatal("semantic change not caught")
	}
}

func TestFaultInjectorDeterminismAndSafety(t *testing.T) {
	a, b := NewFaultInjector(42), NewFaultInjector(42)
	if a.Pass != b.Pass || a.Mode != b.Mode {
		t.Fatalf("injector not deterministic: %v/%v vs %v/%v", a.Pass, a.Mode, b.Pass, b.Mode)
	}
	var nilFI *FaultInjector
	nilFI.Before("SLM", 0) // must not panic
	if got := nilFI.MutateBytecode("SLM", tinyProg()); got == nil {
		t.Fatal("nil injector swallowed the program")
	}
	if nilFI.Fired() != 0 {
		t.Fatal("nil injector fired")
	}
}

func TestFaultInjectorBytecodeModes(t *testing.T) {
	prog := tinyProg()

	corrupt := &FaultInjector{Pass: "SLM", Mode: FaultCorrupt}
	mutated := corrupt.MutateBytecode("SLM", prog.Clone())
	if corrupt.Fired() != 1 {
		t.Fatal("corrupt did not fire")
	}
	if err := ValidateProgram(mutated); err != nil {
		t.Fatalf("corruption must stay structurally valid: %v", err)
	}
	if err := DiffPrograms(prog, mutated, Inputs(ebpf.HookTracepoint, 4, 9)); err == nil {
		t.Fatal("corruption must be observable under differential execution")
	}

	bad := &FaultInjector{Pass: "SLM", Mode: FaultBadBranch}
	broken := bad.MutateBytecode("SLM", prog.Clone())
	if bad.Fired() != 1 {
		t.Fatal("badbranch did not fire")
	}
	if err := ValidateProgram(broken); err == nil {
		t.Fatal("structural corruption must fail validation")
	}

	// Wrong pass name: untouched.
	other := &FaultInjector{Pass: "CC", Mode: FaultCorrupt}
	if got := other.MutateBytecode("SLM", prog); got != prog || other.Fired() != 0 {
		t.Fatal("injector fired on non-target pass")
	}
}

func TestFaultInjectorIRModes(t *testing.T) {
	src := `module "m"
func f(%ctx: ptr) -> i64 {
entry:
  %s = alloca 8, align 8
  store i64 %s, 3, align 8
  %v = load i64, %s, align 8
  ret %v
}
`
	parse := func() *ir.Module {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	mod := parse()
	corrupt := &FaultInjector{Pass: "DAO", Mode: FaultCorrupt}
	corrupt.MutateIR("DAO", mod)
	if corrupt.Fired() != 1 {
		t.Fatal("IR corrupt did not fire")
	}
	if err := ir.Validate(mod); err != nil {
		t.Fatalf("IR corruption must stay well-formed: %v", err)
	}

	mod = parse()
	bad := &FaultInjector{Pass: "DAO", Mode: FaultBadBranch}
	bad.MutateIR("DAO", mod)
	if bad.Fired() != 1 {
		t.Fatal("IR badbranch did not fire")
	}
	if err := ir.Validate(mod); err == nil {
		t.Fatal("IR structural corruption must fail validation")
	}
}
