package vm

import "unsafe"

// kindNames names every micro-op kind, for the external corpus-coverage test
// (kinds_test.go); NumKinds is how many there are.
var kindNames = [...]string{
	kClosure: "kClosure", kExit: "kExit", kJa: "kJa", kJccI: "kJccI", kJccR: "kJccR",
	kLddw: "kLddw", kAluI: "kAluI", kAluR: "kAluR",
	kLdx1: "kLdx1", kLdx2: "kLdx2", kLdx4: "kLdx4", kLdx8: "kLdx8",
	kStx1: "kStx1", kStx2: "kStx2", kStx4: "kStx4", kStx8: "kStx8",
	kSti1: "kSti1", kSti2: "kSti2", kSti4: "kSti4", kSti8: "kSti8",
	kMovI: "kMovI", kMovR: "kMovR", kAddI: "kAddI", kAddR: "kAddR",
	kSubI: "kSubI", kSubR: "kSubR", kAndI: "kAndI", kAndR: "kAndR",
	kOrI: "kOrI", kOrR: "kOrR", kXorI: "kXorI", kXorR: "kXorR",
	kLshI: "kLshI", kLshR: "kLshR", kRshI: "kRshI", kRshR: "kRshR",
	kMov32R:     "kMov32R",
	kFMovLshRsh: "kFMovLshRsh", kFMovAddI: "kFMovAddI", kFMovSub: "kFMovSub",
	kFLshRsh: "kFLshRsh", kFSubMov: "kFSubMov", kFRshMov: "kFRshMov",
	kFMovMov: "kFMovMov", kFHash7: "kFHash7",
	kJeqI: "kJeqI", kJeqR: "kJeqR", kJneI: "kJneI", kJneR: "kJneR",
	kJleI: "kJleI", kJleR: "kJleR",
}

const NumKinds = len(kindNames)

func KindName(k int) string { return kindNames[k] }

// CountKinds adds the kind of every element of m's decoded program to counts.
// Interior slots of a fused group count as the original micro-ops they keep.
func (m *Machine) CountKinds(counts *[NumKinds]int) {
	for _, u := range m.code {
		counts[u.exec]++
	}
}

// Specialisation is one operation the fast engine executes without going
// through the semantics table, and the kinds (either operand form) that do it.
type Specialisation struct {
	Name  string
	Kinds []int
}

// Specialisations lists every fused kind and every inline ALU and compare
// operation, read from the tables compile itself dispatches on.
func Specialisations() []Specialisation {
	var out []Specialisation
	for f, k := range inlineALU {
		if f.is32 {
			// The immediate form of mov32 is the 64-bit kMovI.
			out = append(out, Specialisation{f.op.String() + "32", []int{int(k.reg)}})
			continue
		}
		out = append(out, Specialisation{f.op.String(), []int{int(k.imm), int(k.reg)}})
	}
	for op, k := range jccKind {
		out = append(out, Specialisation{op.String(), []int{int(k), int(k) + 1}})
	}
	for k := kFMovLshRsh; k <= kFHash7; k++ {
		out = append(out, Specialisation{kindNames[k], []int{int(k)}})
	}
	return out
}

// UopSize is the size of one pre-decoded element.
const UopSize = unsafe.Sizeof(uop{})
