package irpass

import (
	"strings"
	"testing"
	"testing/quick"

	"merlin/internal/ir"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestConstFold(t *testing.T) {
	m := parse(t, `module "cf"
func f(%ctx: ptr) -> i64 {
entry:
  %a = bin add i64 3, 4
  %b = bin shl i64 %a, 2
  %c = bin add i64 %b, 0
  %d = bin mul i64 %c, 1
  ret %d
}
`)
	f := m.Funcs[0]
	if n := ConstFold(f); n == 0 {
		t.Fatal("expected folds")
	}
	DCE(f)
	// Everything folds to ret 28.
	if got := f.NumInstrs(); got != 1 {
		t.Fatalf("NumInstrs = %d, want 1:\n%s", got, ir.Print(m))
	}
	ret := f.Entry().Terminator()
	c, ok := ret.Args[0].(*ir.Const)
	if !ok || c.Val != 28 {
		t.Fatalf("ret operand = %v", ret.Args[0])
	}
}

func TestConstFoldDivByZero(t *testing.T) {
	m := parse(t, `module "dz"
func f(%ctx: ptr) -> i64 {
entry:
  %a = bin udiv i64 7, 0
  %b = bin urem i64 9, 0
  %c = bin add i64 %a, %b
  ret %c
}
`)
	f := m.Funcs[0]
	ConstFold(f)
	ret := f.Entry().Terminator()
	c, ok := ret.Args[0].(*ir.Const)
	if !ok || c.Val != 9 { // div→0, rem→dst unchanged (9), eBPF semantics
		t.Fatalf("ret operand = %v, want 9", ret.Args[0])
	}
}

func TestEvalBinWidths(t *testing.T) {
	if got := EvalBin(ir.Add, ir.I32, 0xffffffff, 1); got != 0 {
		t.Errorf("i32 wrap add = %#x", got)
	}
	if got := EvalBin(ir.AShr, ir.I32, 0x80000000, 4); got != 0xf8000000 {
		t.Errorf("i32 ashr = %#x", got)
	}
	if got := EvalBin(ir.Shl, ir.I8, 1, 9); got != 2 { // shift mod width
		t.Errorf("i8 shl 9 = %#x", got)
	}
	if !EvalCmp(ir.SLT, ir.I32, 0xffffffff, 0) {
		t.Error("i32 -1 should be SLT 0")
	}
	if EvalCmp(ir.ULT, ir.I32, 0xffffffff, 0) {
		t.Error("i32 0xffffffff should not be ULT 0")
	}
}

// Property: folding agrees with re-evaluating at each width.
func TestEvalBinTruncProperty(t *testing.T) {
	f := func(a, b uint64, kindRaw, tyRaw uint8) bool {
		kind := ir.BinKind(kindRaw % 11)
		ty := ir.Type(tyRaw % 4) // integer types only
		r := EvalBin(kind, ty, a, b)
		// Result must already be truncated.
		return r == truncTo(ty, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDCERemovesDeadAllocaStores(t *testing.T) {
	// Mirrors Fig 4's dead store: a slot written but never read.
	m := parse(t, `module "dce"
func f(%ctx: ptr) -> i64 {
entry:
  %slot = alloca 4, align 4
  store i32 %slot, 0, align 4
  store i32 %slot, 1, align 4
  ret 0
}
`)
	f := m.Funcs[0]
	if n := DCE(f); n != 3 {
		t.Fatalf("DCE removed %d, want 3 (2 stores + alloca)", n)
	}
	if f.NumInstrs() != 1 {
		t.Fatalf("leftovers:\n%s", ir.Print(m))
	}
}

func TestDCEKeepsEscapedAlloca(t *testing.T) {
	m := parse(t, `module "esc"
map @m : array key=4 value=8 max=4
func f(%ctx: ptr) -> i64 {
entry:
  %key = alloca 4, align 4
  store i32 %key, 0, align 4
  %mp = mapptr @m
  %v = call 1, %mp, %key
  ret %v
}
`)
	f := m.Funcs[0]
	DCE(f)
	if f.NumInstrs() != 5 {
		t.Fatalf("escaped alloca store must survive:\n%s", ir.Print(m))
	}
}

func TestStoreToLoadForward(t *testing.T) {
	m := parse(t, `module "s2l"
func f(%ctx: ptr) -> i64 {
entry:
  %slot = alloca 8, align 8
  %x = load i64, %ctx, align 8
  store i64 %slot, %x, align 8
  %y = load i64, %slot, align 8
  %z = bin add i64 %y, 1
  ret %z
}
`)
	f := m.Funcs[0]
	if n := StoreToLoadForward(f); n != 1 {
		t.Fatalf("forwarded %d, want 1", n)
	}
	DCE(f)
	// load %slot gone; add consumes %x directly. Store+alloca now dead too.
	if got := f.NumInstrs(); got != 3 {
		t.Fatalf("NumInstrs = %d:\n%s", got, ir.Print(m))
	}
}

func TestS2LForwardRespectsEscapes(t *testing.T) {
	m := parse(t, `module "s2lesc"
map @m : array key=4 value=8 max=4
func f(%ctx: ptr) -> i64 {
entry:
  %key = alloca 4, align 4
  store i32 %key, 7, align 4
  %mp = mapptr @m
  %v = call 1, %mp, %key
  %y = load i32, %key, align 4
  %z = zext i64, %y
  ret %z
}
`)
	f := m.Funcs[0]
	if n := StoreToLoadForward(f); n != 0 {
		t.Fatalf("forwarded through an escaped alloca (%d)", n)
	}
}

func TestDAORaisesAlignment(t *testing.T) {
	// Fig 6: load i16 with align 1 from an 8-aligned base + even offset.
	m := parse(t, `module "dao"
func f(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %p = gep %data, 36
  %x = load i16, %p, align 1
  %r = zext i64, %x
  ret %r
}
`)
	f := m.Funcs[0]
	if n := DataAlignment(f); n != 1 {
		t.Fatalf("applied %d, want 1", n)
	}
	ld := f.Entry().Instrs[2]
	if ld.Align != 2 {
		t.Fatalf("align = %d, want 2", ld.Align)
	}
}

func TestDAOOddOffsetStaysByteAligned(t *testing.T) {
	m := parse(t, `module "dao2"
func f(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %p = gep %data, 37
  %x = load i16, %p, align 1
  %r = zext i64, %x
  ret %r
}
`)
	f := m.Funcs[0]
	if n := DataAlignment(f); n != 0 {
		t.Fatal("odd offset must not be realigned")
	}
}

func TestDAOVariableOffsetUnknown(t *testing.T) {
	m := parse(t, `module "dao3"
func f(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %i = load i64, %ctx, align 8
  %p = gep %data, %i
  %x = load i32, %p, align 1
  %r = zext i64, %x
  ret %r
}
`)
	f := m.Funcs[0]
	if n := DataAlignment(f); n != 0 {
		t.Fatal("variable offset must not be realigned")
	}
}

func TestDAOStackSlot(t *testing.T) {
	m := parse(t, `module "dao4"
func f(%ctx: ptr) -> i64 {
entry:
  %slot = alloca 8, align 8
  store i64 %slot, 1, align 1
  %v = load i64, %slot, align 8
  ret %v
}
`)
	f := m.Funcs[0]
	if n := DataAlignment(f); n != 1 {
		t.Fatalf("applied %d, want 1 (store realigned)", n)
	}
	if st := f.Entry().Instrs[1]; st.Align != 8 {
		t.Fatalf("store align = %d, want 8", st.Align)
	}
}

func TestMacroOpFusion(t *testing.T) {
	// Fig 7: load/add/store on the same address becomes atomicrmw.
	m := parse(t, `module "mof"
func f(%ctx: ptr) -> i64 {
entry:
  %p = gep %ctx, 16
  %x = load i64, %p, align 8
  %inc = load i64, %ctx, align 8
  %y = bin add i64 %x, %inc
  store i64 %p, %y, align 8
  ret 0
}
`)
	f := m.Funcs[0]
	if n := MacroOpFusion(f); n != 1 {
		t.Fatalf("fused %d, want 1:\n%s", n, ir.Print(m))
	}
	var rmw *ir.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAtomicRMW {
			rmw = in
		}
		if in.Op == ir.OpStore {
			t.Fatal("store should have been fused away")
		}
	}
	if rmw == nil || rmw.Bin != ir.Add {
		t.Fatalf("missing atomicrmw add:\n%s", ir.Print(m))
	}
}

func TestMoFConstantIncrement(t *testing.T) {
	m := parse(t, `module "mofc"
func f(%ctx: ptr) -> i64 {
entry:
  %x = load i64, %ctx, align 8
  %y = bin add i64 %x, 1
  store i64 %ctx, %y, align 8
  ret 0
}
`)
	if n := MacroOpFusion(m.Funcs[0]); n != 1 {
		t.Fatalf("fused %d, want 1", n)
	}
}

// TestMoFAcrossBlocks fuses two triples in one block and one in the next from
// a single use-count map, which must still be the function's use counts after
// every block.
func TestMoFAcrossBlocks(t *testing.T) {
	m := parse(t, `module "mof3"
func f(%ctx: ptr) -> i64 {
entry:
  %p = gep %ctx, 16
  %q = gep %ctx, 24
  %a = load i64, %p, align 8
  %a2 = bin add i64 %a, 1
  store i64 %p, %a2, align 8
  %b = load i64, %q, align 8
  %b2 = bin xor i64 %b, %ctx
  store i64 %q, %b2, align 8
  br next
next:
  %c = load i64, %ctx, align 8
  %c2 = bin or i64 %c, 4
  store i64 %ctx, %c2, align 8
  ret 0
}
`)
	f := m.Funcs[0]
	uses := useCounts(f)
	applied := []int{}
	for _, b := range f.Blocks {
		applied = append(applied, fuseBlock(b, uses))
		fresh := useCounts(f)
		for in, n := range uses {
			if fresh[in] != n {
				t.Errorf("after block %s: kept use count %d for %s, recount says %d", b.Name, n, in.Name, fresh[in])
			}
		}
		for in, n := range fresh {
			if uses[in] != n {
				t.Errorf("after block %s: recount has %d uses of %s, kept map %d", b.Name, n, in.Name, uses[in])
			}
		}
	}
	if len(applied) != 2 || applied[0] != 2 || applied[1] != 1 {
		t.Fatalf("applied per block = %v, want [2 1]:\n%s", applied, ir.Print(m))
	}
	const want = `module "mof3"

func f(%ctx: ptr) -> i64 {
entry:
  %p = gep %ctx, 16
  %q = gep %ctx, 24
  atomicrmw add i64 %p, 1, align 8
  atomicrmw xor i64 %q, %ctx, align 8
  br next
next:
  atomicrmw or i64 %ctx, 4, align 8
  ret 0
}
`
	if got := ir.Print(m); got != want {
		t.Fatalf("printed IR:\n%s\nwant:\n%s", got, want)
	}
}

func TestMoFRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"sub not fusible", `
  %x = load i64, %ctx, align 8
  %y = bin sub i64 %x, 1
  store i64 %ctx, %y, align 8
  ret 0`},
		{"intervening call", `
  %x = load i64, %ctx, align 8
  %c = call 5
  %y = bin add i64 %x, 1
  store i64 %ctx, %y, align 8
  ret 0`},
		{"different pointer", `
  %p = gep %ctx, 8
  %x = load i64, %ctx, align 8
  %y = bin add i64 %x, 1
  store i64 %p, %y, align 8
  ret 0`},
		{"underaligned", `
  %x = load i64, %ctx, align 4
  %y = bin add i64 %x, 1
  store i64 %ctx, %y, align 8
  ret 0`},
		{"narrow width", `
  %x = load i16, %ctx, align 2
  %y = bin add i16 %x, 1
  store i16 %ctx, %y, align 2
  ret 0`},
		{"load multiply used", `
  %x = load i64, %ctx, align 8
  %y = bin add i64 %x, 1
  %z = bin add i64 %x, 2
  store i64 %ctx, %y, align 8
  store i64 %ctx, %z, align 8
  ret 0`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := parse(t, "module \"r\"\nfunc f(%ctx: ptr) -> i64 {\nentry:"+c.body+"\n}\n")
			if n := MacroOpFusion(m.Funcs[0]); n != 0 {
				t.Fatalf("fused %d, want 0:\n%s", n, ir.Print(m))
			}
		})
	}
}

func TestManagerRunsAndRecords(t *testing.T) {
	m := parse(t, `module "mgr"
func f(%ctx: ptr) -> i64 {
entry:
  %a = bin add i64 1, 2
  ret %a
}
`)
	mgr := &Manager{Passes: append(Generic(), Merlin()...)}
	mgr.Run(m)
	if len(mgr.Stats) != 5 {
		t.Fatalf("stats = %d, want 5", len(mgr.Stats))
	}
	names := []string{}
	for _, s := range mgr.Stats {
		names = append(names, s.Pass)
	}
	joined := strings.Join(names, ",")
	if joined != "constfold,s2lforward,dce,DAO,MoF" {
		t.Fatalf("pass order = %s", joined)
	}
	if err := ir.Validate(m); err != nil {
		t.Fatalf("post-pipeline IR invalid: %v", err)
	}
}
