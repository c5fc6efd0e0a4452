package ir

import (
	"strings"
	"testing"
)

// buildSample constructs a small module exercising most instruction kinds.
func buildSample() *Builder {
	b := NewModule("sample")
	counters := b.DeclareMap("counters", MapPerCPUArray, 4, 8, 256)
	ctx := &Param{Name: "ctx", Ty: Ptr}
	b.NewFunc("prog", ctx)

	key := b.Alloca(4, 4)
	vslot := b.Alloca(8, 8)
	b.Store(key, ConstInt(I32, 0), 4)
	dataPtrP := b.GEPc(ctx, 0)
	data := b.Load(I64, dataPtrP, 8)
	endPtrP := b.GEPc(ctx, 8)
	end := b.Load(I64, endPtrP, 8)
	limit := b.Bin(Add, I64, data, ConstInt(I64, 14))
	cmp := b.ICmp(UGT, limit, end)
	drop := b.Block("drop")
	parse := b.Block("parse")
	b.CondBr(cmp, drop, parse)

	b.SetBlock(drop)
	b.Ret(ConstInt(I64, 1))

	b.SetBlock(parse)
	m := b.MapPtr(counters)
	v := b.Call(1, m, key)
	b.Store(vslot, v, 8)
	isNil := b.ICmp(EQ, v, ConstInt(I64, 0))
	done := b.Block("done")
	bump := b.Block("bump")
	b.CondBr(isNil, done, bump)

	b.SetBlock(bump)
	vp := b.Load(Ptr, vslot, 8)
	old := b.Load(I64, vp, 8)
	inc := b.Bin(Add, I64, old, ConstInt(I64, 1))
	b.Store(vp, inc, 8)
	b.Br(done)

	b.SetBlock(done)
	b.Ret(ConstInt(I64, 2))
	return b
}

func TestBuilderAndValidate(t *testing.T) {
	b := buildSample()
	if err := Validate(b.Mod); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := b.Mod.Func("prog").NumInstrs(); got < 15 {
		t.Errorf("NumInstrs = %d, want >= 15", got)
	}
	if b.Mod.Map("counters") == nil || b.Mod.Map("nope") != nil {
		t.Error("Map lookup broken")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildSample().Mod
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse printed module: %v\n%s", err, text)
	}
	text2 := Print(m2)
	if text != text2 {
		t.Fatalf("round trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no module", "func f() -> i64 {\nentry:\n  ret 0\n}", "expected module"},
		{"bad map", "module \"m\"\nmap @x : blah key=1 value=1 max=1\nfunc f() -> i64 {\nentry:\n ret 0\n}", "unknown map kind"},
		{"undefined value", "module \"m\"\nfunc f() -> i64 {\nentry:\n  ret %nope\n}", "undefined value"},
		{"unknown instr", "module \"m\"\nfunc f() -> i64 {\nentry:\n  frob 1\n  ret 0\n}", "unknown instruction"},
		{"unknown block", "module \"m\"\nfunc f() -> i64 {\nentry:\n  br missing\n}", "unknown block"},
		{"undeclared map", "module \"m\"\nfunc f() -> i64 {\nentry:\n  %m = mapptr @ghost\n  ret 0\n}", "not declared"},
		{"dup name", "module \"m\"\nfunc f() -> i64 {\nentry:\n  %a = alloca 4, align 4\n  %a = alloca 4, align 4\n  ret 0\n}", "duplicate"},
		{"unterminated", "module \"m\"\nfunc f() -> i64 {\nentry:\n  ret 0\n", "unterminated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Parse error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateRejections(t *testing.T) {
	ctx := &Param{Name: "ctx", Ty: Ptr}

	t.Run("cross-block value", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		v := b.Load(I64, ctx, 8)
		next := b.Block("next")
		b.Br(next)
		b.SetBlock(next)
		b.Ret(v) // illegal: v defined in entry, used in next
		if err := Validate(b.Mod); err == nil || !strings.Contains(err.Error(), "allocas") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("alloca visible across blocks", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		slot := b.Alloca(8, 8)
		next := b.Block("next")
		b.Br(next)
		b.SetBlock(next)
		v := b.Load(I64, slot, 8)
		b.Ret(v)
		if err := Validate(b.Mod); err != nil {
			t.Fatalf("entry alloca should be function-scoped: %v", err)
		}
	})

	t.Run("terminator in middle", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		b.Ret(ConstInt(I64, 0))
		b.Cur.Append(&Instr{Op: OpRet, Args: []Value{ConstInt(I64, 1)}})
		if err := Validate(b.Mod); err == nil {
			t.Fatal("want terminator error")
		}
	})

	t.Run("bad alignment", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		b.Load(I32, ctx, 3)
		b.Ret(ConstInt(I64, 0))
		if err := Validate(b.Mod); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("atomicrmw sub rejected", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		b.AtomicRMW(Sub, I64, ctx, ConstInt(I64, 1), 8)
		b.Ret(ConstInt(I64, 0))
		if err := Validate(b.Mod); err == nil || !strings.Contains(err.Error(), "atomicrmw") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("too many call args", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		c := ConstInt(I64, 0)
		b.Call(1, c, c, c, c, c, c)
		b.Ret(ConstInt(I64, 0))
		if err := Validate(b.Mod); err == nil || !strings.Contains(err.Error(), "5 arguments") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("load from non-pointer", func(t *testing.T) {
		b := NewModule("m")
		b.NewFunc("f", ctx)
		x := b.Bin(Add, I64, ConstInt(I64, 1), ConstInt(I64, 2))
		b.Load(I64, x, 8)
		b.Ret(ConstInt(I64, 0))
		if err := Validate(b.Mod); err == nil || !strings.Contains(err.Error(), "non-pointer") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestTypeProperties(t *testing.T) {
	for _, c := range []struct {
		ty    Type
		bytes int
	}{{I8, 1}, {I16, 2}, {I32, 4}, {I64, 8}, {Ptr, 8}} {
		if c.ty.Bytes() != c.bytes {
			t.Errorf("%s.Bytes() = %d", c.ty, c.ty.Bytes())
		}
	}
	for n, want := range map[int]Type{1: I8, 2: I16, 4: I32, 8: I64} {
		got, ok := TypeForBytes(n)
		if !ok || got != want {
			t.Errorf("TypeForBytes(%d) = %v,%v", n, got, ok)
		}
	}
	if _, ok := TypeForBytes(5); ok {
		t.Error("TypeForBytes(5) should fail")
	}
}

func TestPredicateInverse(t *testing.T) {
	for p := EQ; p <= SGE; p++ {
		if p.Inverse().Inverse() != p {
			t.Errorf("double inverse of %s is %s", p, p.Inverse().Inverse())
		}
		if p.Inverse() == p {
			t.Errorf("%s is its own inverse", p)
		}
	}
}

func TestParseBinKindAndPred(t *testing.T) {
	for k := Add; k <= AShr; k++ {
		got, ok := ParseBinKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseBinKind(%s) = %v,%v", k, got, ok)
		}
	}
	if _, ok := ParseBinKind("nope"); ok {
		t.Error("ParseBinKind(nope) should fail")
	}
	for p := EQ; p <= SGE; p++ {
		got, ok := ParseCmpPred(p.String())
		if !ok || got != p {
			t.Errorf("ParseCmpPred(%s) = %v,%v", p, got, ok)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
module "c" ; trailing comment

; a full-line comment
func f(%ctx: ptr) -> i64 {
entry:
  %a = load i64, %ctx, align 8 ; read
  ret %a
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Funcs[0].NumInstrs() != 2 {
		t.Fatalf("NumInstrs = %d", m.Funcs[0].NumInstrs())
	}
}

func TestForwardBranchParse(t *testing.T) {
	src := `module "f"
func f(%ctx: ptr) -> i64 {
entry:
  %a = load i64, %ctx, align 8
  %c = icmp eq i64 %a, 0
  condbr %c, yes, no
yes:
  ret 1
no:
  ret 0
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	term := m.Funcs[0].Entry().Terminator()
	if term == nil || term.Op != OpCondBr {
		t.Fatal("entry not terminated by condbr")
	}
	if term.Blocks[0].Name != "yes" || term.Blocks[1].Name != "no" {
		t.Fatalf("targets = %s,%s", term.Blocks[0].Name, term.Blocks[1].Name)
	}
	// Forward-declared blocks must be the same objects as the labelled ones.
	if term.Blocks[0] != m.Funcs[0].Blocks[1] {
		t.Fatal("forward block reference not unified with definition")
	}
}

func TestBswapParsePrintRoundTrip(t *testing.T) {
	src := `module "bs"
func f(%ctx: ptr) -> i64 {
entry:
  %x = load i16, %ctx, align 2
  %s = bswap i16, %x
  %w = zext i32, %s
  %s2 = bswap i32, %w
  %z = zext i64, %s2
  %s3 = bswap i64, %z
  ret %s3
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(Print(m))
	if err != nil {
		t.Fatal(err)
	}
	if Print(m) != Print(again) {
		t.Fatal("bswap round trip mismatch")
	}
}

func TestBswapValidation(t *testing.T) {
	// i8 bswap is invalid.
	b := NewModule("m")
	b.NewFunc("g", &Param{Name: "ctx", Ty: Ptr})
	y := b.Load(I8, b.Fn.Params[0], 1)
	b.Bswap(I8, y)
	b.Ret(ConstInt(I64, 0))
	if err := Validate(b.Mod); err == nil {
		t.Fatal("i8 bswap accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := buildSample().Mod
	c := Clone(m)
	if Print(m) != Print(c) {
		t.Fatal("clone prints differently")
	}
	// Mutating the clone must not affect the original.
	c.Funcs[0].Entry().Instrs[0].Align = 1
	c.Maps[0].ValueSize = 999
	if Print(m) == Print(c) {
		t.Fatal("clone shares instruction storage")
	}
	if m.Maps[0].ValueSize == 999 {
		t.Fatal("clone shares map storage")
	}
	// Clone's map refs point at the clone's maps.
	for _, b := range c.Funcs[0].Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpMapPtr && in.Map != c.Maps[0] {
				t.Fatal("clone mapptr points at the original module")
			}
		}
	}
}

// TestValidateAllocationsDoNotScalePerInstruction: Validate's bookkeeping is
// a few maps per function, not a table built per instruction — a module four
// times as long does not allocate more per instruction, and a 1000-instruction
// block validates in far fewer allocations than it has instructions.
func TestValidateAllocationsDoNotScalePerInstruction(t *testing.T) {
	chain := func(n int) *Module {
		b := NewModule("chain")
		ctx := &Param{Name: "ctx", Ty: Ptr}
		b.NewFunc("f", ctx)
		var v Value = b.Load(I64, ctx, 8)
		for i := 0; i < n; i++ {
			v = b.Bin(Add, I64, v, ConstInt(I64, int64(i)))
		}
		b.Ret(v)
		return b.Mod
	}
	allocs := func(m *Module) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := Validate(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1000
	a1, a4 := allocs(chain(n)), allocs(chain(4*n))
	if a1 >= n/4 {
		t.Errorf("Validate of %d instructions made %.0f allocations: something is allocated per instruction", n, a1)
	}
	if a4/4 > a1 {
		t.Errorf("allocations per instruction rose with module size: %.0f for %d, %.0f for %d", a1, n, a4, 4*n)
	}
}
