package ebpf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// deleteOne is the per-element deletion Sweep replaced, kept as its oracle:
// remove element i, and renumber every target past it down by one, so a
// branch that targeted i now targets its successor.
func deleteOne(e *Editable, i int) {
	e.Insns = append(e.Insns[:i], e.Insns[i+1:]...)
	e.Target = append(e.Target[:i], e.Target[i+1:]...)
	for k, t := range e.Target {
		if t > i {
			e.Target[k] = t - 1
		}
	}
}

// insertOne is the per-element insertion Splice replaced, kept as an oracle
// primitive: insert ins ahead of element i, and renumber every target at or
// past i up by one, so branches keep their old instruction.
func insertOne(e *Editable, i int, ins Instruction) {
	e.Insns = append(e.Insns, Instruction{})
	copy(e.Insns[i+1:], e.Insns[i:])
	e.Insns[i] = ins
	e.Target = append(e.Target, 0)
	copy(e.Target[i+1:], e.Target[i:])
	e.Target[i] = -1
	for k := range e.Target {
		if k != i && e.Target[k] >= i {
			e.Target[k]++
		}
	}
}

// refSplice applies edits with the per-element primitives, last edit first.
// A window [s,e) loses its interior (branches into it move to the element
// after the window), gains the replacement right after s, and then loses s
// itself, which moves branches into s onto the first replacement instruction
// (or past the window when there is none). An insertion at s puts the
// replacement after s, then a copy of s (target included) after that, and
// drops the original, so branches into s land on the insertion.
func refSplice(e *Editable, edits []Edit) {
	for k := len(edits) - 1; k >= 0; k-- {
		ed := edits[k]
		s := ed.Start
		if ed.End == s {
			for j, ins := range ed.Repl {
				insertOne(e, s+1+j, ins)
			}
			after := s + 1 + len(ed.Repl)
			insertOne(e, after, e.Insns[s])
			e.Target[after] = e.Target[s]
			deleteOne(e, s)
			continue
		}
		for i := ed.End - 1; i > s; i-- {
			deleteOne(e, i)
		}
		for j, ins := range ed.Repl {
			insertOne(e, s+1+j, ins)
		}
		deleteOne(e, s)
	}
}

// randomProgram draws a well-formed program of n elements: ALU instructions,
// lddw, forward and backward branches to any element, and a final exit.
func randomProgram(rng *rand.Rand, n int) *Program {
	e := &Editable{prog: &Program{Name: "fuzz", Hook: HookXDP, MCPU: 2}}
	for i := 0; i < n-1; i++ {
		ins, t := randomInsn(rng), -1
		switch rng.Intn(6) {
		case 0:
			ins, t = JumpImm(JumpEq, Register(rng.Intn(10)), int32(rng.Intn(4)), 0), rng.Intn(n)
		case 1:
			ins, t = Jump(0), rng.Intn(n)
		}
		e.Insns = append(e.Insns, ins)
		e.Target = append(e.Target, t)
	}
	e.Insns = append(e.Insns, Exit())
	e.Target = append(e.Target, -1)
	p, err := e.Finalize()
	if err != nil {
		panic(err)
	}
	return p
}

// randomInsn draws a non-branch instruction, sometimes a wide one.
func randomInsn(rng *rand.Rand) Instruction {
	if rng.Intn(4) == 0 {
		return LoadImm64(Register(rng.Intn(10)), rng.Int63())
	}
	return ALU64Imm(ALUAdd, Register(rng.Intn(10)), int32(rng.Intn(100)))
}

// randomEdits draws edits in ascending, non-overlapping order: windows of one
// to three elements or insertions, each replaced by zero to three
// instructions. Insertions sit ahead of an element, never at the end.
func randomEdits(rng *rand.Rand, n int) []Edit {
	var edits []Edit
	for i := 0; i < n; {
		if rng.Intn(3) != 0 {
			i++
			continue
		}
		ed := Edit{Start: i, End: i}
		if rng.Intn(3) != 0 {
			ed.End = min(n, i+1+rng.Intn(3))
		}
		for k := rng.Intn(4); k > 0; k-- {
			ed.Repl = append(ed.Repl, randomInsn(rng))
		}
		edits = append(edits, ed)
		i = max(ed.End, i+1)
	}
	return edits
}

// finalized renders Finalize's outcome for comparison.
func finalized(e *Editable) string {
	p, err := e.Finalize()
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(p.Insns)
}

func sameEdit(t *testing.T, what string, got, want *Editable) {
	t.Helper()
	if !reflect.DeepEqual(got.Insns, want.Insns) || !reflect.DeepEqual(got.Target, want.Target) {
		t.Fatalf("%s: got %v targets %v, want %v targets %v", what, got.Insns, got.Target, want.Insns, want.Target)
	}
	if g, w := finalized(got), finalized(want); g != w {
		t.Fatalf("%s: finalized\n%s\nwant\n%s", what, g, w)
	}
}

// FuzzEditableSweep holds Sweep to per-element deletion from the back, and
// Splice to a reference built from per-element deletions and insertions:
// same instructions, same targets, same finalized offsets.
func FuzzEditableSweep(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0x12, 0x80})
	f.Add(int64(2), uint8(40), []byte{0xff, 0x00, 0x5a, 0xa5, 0x0f})
	f.Add(int64(3), uint8(1), []byte{0x01})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, mask []byte) {
		n := 1 + int(size)%64
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, n)
		dead := make([]bool, n)
		for i := range dead {
			dead[i] = len(mask) > 0 && mask[(i/8)%len(mask)]>>(i%8)&1 == 1
		}

		got, err := MakeEditable(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := MakeEditable(p)
		got.Sweep(dead)
		for i := n - 1; i >= 0; i-- {
			if dead[i] {
				deleteOne(want, i)
			}
		}
		sameEdit(t, "sweep", got, want)

		edits := randomEdits(rng, n)
		got, _ = MakeEditable(p)
		want, _ = MakeEditable(p)
		got.Splice(edits)
		refSplice(want, edits)
		sameEdit(t, fmt.Sprintf("splice %v", edits), got, want)
	})
}

// TestSpliceLandings pins where branches into an edit land: the start of a
// window on its replacement, the start of an emptied window and its interior
// past the window, and an insertion's element on the insertion.
func TestSpliceLandings(t *testing.T) {
	// 0-4 branch to elements 5..9; 5-9 movs; 10 exit.
	var insns []Instruction
	for k := 0; k < 5; k++ {
		insns = append(insns, Jump(4))
	}
	for k := 0; k < 5; k++ {
		insns = append(insns, Mov64Imm(R1, int32(k)))
	}
	insns = append(insns, Exit())
	e, err := MakeEditable(&Program{Name: "t", Insns: insns})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 6, 7, 8, 9, -1, -1, -1, -1, -1, -1}; !reflect.DeepEqual(e.Target, want) {
		t.Fatalf("targets %v, want %v", e.Target, want)
	}
	r := Mov64Imm(R2, 7)
	e.Splice([]Edit{
		{Start: 5, End: 7, Repl: []Instruction{r}}, // 5 → the replacement, 6 → past the window
		{Start: 7, End: 8},                         // 7 → past the emptied window
		{Start: 9, End: 9, Repl: []Instruction{r}}, // 9 → the insertion
	})
	want := []Instruction{insns[0], insns[1], insns[2], insns[3], insns[4], r, insns[8], r, insns[9], insns[10]}
	if !reflect.DeepEqual(e.Insns, want) {
		t.Fatalf("insns %v, want %v", e.Insns, want)
	}
	if want := []int{5, 6, 6, 6, 7, -1, -1, -1, -1, -1}; !reflect.DeepEqual(e.Target, want) {
		t.Fatalf("targets %v, want %v", e.Target, want)
	}
}
