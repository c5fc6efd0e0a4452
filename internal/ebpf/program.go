package ebpf

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// HookType identifies where a program attaches. It gates which helpers are
// legal and which context layout the verifier and VM assume.
type HookType uint8

// Supported hook types.
const (
	HookXDP HookType = iota
	HookTracepoint
	HookKprobe
	HookSocketFilter
)

func (h HookType) String() string {
	switch h {
	case HookXDP:
		return "xdp"
	case HookTracepoint:
		return "tracepoint"
	case HookKprobe:
		return "kprobe"
	case HookSocketFilter:
		return "socket_filter"
	}
	return fmt.Sprintf("hook(%d)", uint8(h))
}

// XDP program verdicts, returned in r0.
const (
	XDPAborted  int64 = 0
	XDPDrop     int64 = 1
	XDPPass     int64 = 2
	XDPTx       int64 = 3
	XDPRedirect int64 = 4
)

// MapSpec describes a map the program references via lddw pseudo loads.
// Kind values correspond to ir.MapKind.
type MapSpec struct {
	Name       string
	Kind       int
	KeySize    int
	ValueSize  int
	MaxEntries int
}

// Program is a sequence of eBPF instructions plus attachment metadata.
// Wide lddw instructions occupy a single slice element; NI (the paper's
// instruction-count metric) counts encoding slots, so a lddw contributes 2.
type Program struct {
	Name string
	Hook HookType
	// MCPU is the instruction-set level the program was compiled for:
	// 2 disallows ALU32 and JMP32, 3 allows them (paper §5.1).
	MCPU  int
	Insns []Instruction
	Maps  []MapSpec
}

// PseudoMapFD in the Src field of a wide lddw marks the immediate as a map
// reference (the map's index into Program.Maps) rather than a plain constant,
// mirroring BPF_PSEUDO_MAP_FD.
const PseudoMapFD Register = 1

// LoadMapPtr returns the wide pseudo instruction loading a map reference.
func LoadMapPtr(dst Register, mapIndex int) Instruction {
	ins := LoadImm64(dst, int64(mapIndex))
	ins.Src = PseudoMapFD
	return ins
}

// IsMapLoad reports whether ins is a map-reference pseudo load.
func (ins Instruction) IsMapLoad() bool {
	return ins.IsWide() && ins.Src == PseudoMapFD
}

// NI returns the Number of Instructions metric: encoded size in 8-byte slots.
func (p *Program) NI() int {
	n := 0
	for _, ins := range p.Insns {
		n += ins.Slots()
	}
	return n
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := *p
	q.Insns = append([]Instruction(nil), p.Insns...)
	q.Maps = append([]MapSpec(nil), p.Maps...)
	return &q
}

// SlotIndex returns, for each instruction element, its starting slot, plus
// the total slot count as the final extra entry.
func (p *Program) SlotIndex() []int {
	idx := make([]int, len(p.Insns)+1)
	slot := 0
	for i, ins := range p.Insns {
		idx[i] = slot
		slot += ins.Slots()
	}
	idx[len(p.Insns)] = slot
	return idx
}

// BranchTarget returns the element index a branch at element i jumps to.
// It panics if instruction i is not a branch. Offsets are encoded in slots
// relative to the next instruction, matching the wire format.
func (p *Program) BranchTarget(i int) int {
	ins := p.Insns[i]
	if !ins.IsCondJump() && !ins.IsUncondJump() {
		panic(fmt.Sprintf("ebpf: instruction %d (%s) is not a branch", i, Mnemonic(ins)))
	}
	idx := p.SlotIndex()
	want := idx[i] + ins.Slots() + int(ins.Offset)
	for j := 0; j <= len(p.Insns); j++ {
		if idx[j] == want {
			return j
		}
	}
	return -1
}

// Encode serializes the program to the 8-byte wire format.
func (p *Program) Encode() []byte {
	buf := make([]byte, 0, 8*p.NI())
	for _, ins := range p.Insns {
		buf = appendInsn(buf, ins)
	}
	return buf
}

func appendInsn(buf []byte, ins Instruction) []byte {
	var b [8]byte
	b[0] = ins.Opcode
	b[1] = uint8(ins.Dst&0x0f) | uint8(ins.Src&0x0f)<<4
	binary.LittleEndian.PutUint16(b[2:], uint16(ins.Offset))
	binary.LittleEndian.PutUint32(b[4:], uint32(ins.Imm))
	buf = append(buf, b[:]...)
	if ins.IsWide() {
		var hi [8]byte
		binary.LittleEndian.PutUint32(hi[4:], uint32(uint64(ins.Imm64)>>32))
		buf = append(buf, hi[:]...)
	}
	return buf
}

// Decode parses wire-format bytes into instructions, merging lddw pairs.
func Decode(raw []byte) ([]Instruction, error) {
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("ebpf: program length %d is not a multiple of 8", len(raw))
	}
	var out []Instruction
	if len(raw) > 0 {
		out = make([]Instruction, 0, len(raw)/8) // NI bounds the element count
	}
	for i := 0; i < len(raw); i += 8 {
		ins := Instruction{
			Opcode: raw[i],
			Dst:    Register(raw[i+1] & 0x0f),
			Src:    Register(raw[i+1] >> 4),
			Offset: int16(binary.LittleEndian.Uint16(raw[i+2:])),
			Imm:    int32(binary.LittleEndian.Uint32(raw[i+4:])),
		}
		if ins.IsWide() {
			if i+16 > len(raw) {
				return nil, fmt.Errorf("ebpf: truncated lddw at slot %d", i/8)
			}
			hi := binary.LittleEndian.Uint32(raw[i+12:])
			ins.Imm64 = int64(uint64(uint32(ins.Imm)) | uint64(hi)<<32)
			i += 8
		}
		out = append(out, ins)
	}
	return out, nil
}

// Layout relates a program's elements to its 8-byte encoding slots: the
// dense slot table both VM engines and the verifier resolve branches
// through, computed once per load and copying no instruction.
type Layout struct {
	// SlotOf[i] is the first slot of element i; SlotOf[len(Insns)] is NI.
	SlotOf []int
	// elem[s] is the element starting at slot s, -1 for the second slot of
	// a wide instruction.
	elem []int32
}

// Layout computes p's slot layout.
func (p *Program) Layout() Layout {
	slotOf := p.SlotIndex()
	elem := make([]int32, slotOf[len(p.Insns)])
	for i := range p.Insns {
		elem[slotOf[i]] = int32(i)
		for s := slotOf[i] + 1; s < slotOf[i+1]; s++ {
			elem[s] = -1
		}
	}
	return Layout{SlotOf: slotOf, elem: elem}
}

// ElemAt returns the element starting at slot s. ok is false when s lies
// outside the program (the slot one past the end included) or is the second
// slot of a wide instruction.
func (l Layout) ElemAt(s int) (elem int, ok bool) {
	if s < 0 || s >= len(l.elem) || l.elem[s] < 0 {
		return -1, false
	}
	return int(l.elem[s]), true
}

// JumpSlot returns the slot a branch ins at element i lands on: offsets are
// encoded in slots relative to the next instruction.
func (l Layout) JumpSlot(i int, ins Instruction) int {
	return l.SlotOf[i] + ins.Slots() + int(ins.Offset)
}

// Targets resolves every branch of p to the element index it lands on, -1
// for non-branches, without copying the instructions. It returns an error if
// any branch lands outside the program or into the middle of a wide
// instruction. It resolves as Layout's ElemAt(JumpSlot(i, ins)) does, but
// searches the slot index instead of building the slot table.
func (p *Program) Targets() ([]int, error) {
	n := len(p.Insns)
	slotOf := p.SlotIndex()
	t := make([]int, n)
	for i, ins := range p.Insns {
		t[i] = -1
		if !ins.IsCondJump() && !ins.IsUncondJump() {
			continue
		}
		s := slotOf[i] + ins.Slots() + int(ins.Offset)
		j, ok := slices.BinarySearch(slotOf, s)
		if !ok || j == n {
			return nil, fmt.Errorf("ebpf: %s: branch at %d targets invalid slot %d", p.Name, i, s)
		}
		t[i] = j
	}
	return t, nil
}

// Editable is a branch-target-resolved copy of a program used by rewriting
// passes. Targets are element indices, so instructions can be replaced,
// swept away or spliced without manual offset arithmetic; Finalize
// re-encodes slot-relative offsets.
type Editable struct {
	prog   *Program
	Insns  []Instruction
	Target []int // element index of branch target, or -1 for non-branches
}

// MakeEditable resolves branch targets of p into an Editable copy.
// It returns an error if any branch lands outside the program or into the
// middle of a wide instruction.
func MakeEditable(p *Program) (*Editable, error) {
	t, err := p.Targets()
	if err != nil {
		return nil, err
	}
	return &Editable{prog: p, Insns: slices.Clone(p.Insns), Target: t}, nil
}

// EditableOf is MakeEditable for a caller that already holds p's resolved
// targets (from Targets or a CFG built over p). Both slices are copied.
func EditableOf(p *Program, targets []int) *Editable {
	return &Editable{prog: p, Insns: slices.Clone(p.Insns), Target: slices.Clone(targets)}
}

// Replace swaps instruction i for ins, keeping its branch target (if the
// replacement is a branch, target must be set via SetTarget).
func (e *Editable) Replace(i int, ins Instruction) {
	e.Insns[i] = ins
	if !ins.IsCondJump() && !ins.IsUncondJump() {
		e.Target[i] = -1
	}
}

// SetTarget points branch instruction i at element j.
func (e *Editable) SetTarget(i, j int) { e.Target[i] = j }

// Sweep removes every element i with dead[i] set, in one pass. A branch into
// a removed element lands on the next survivor (the end of the program when
// none follows), exactly as if the dead elements were deleted one at a time
// from the back; a target t is renumbered to the count of survivors before
// it. Removing a branch target's only definition is the caller's
// responsibility to have proven safe.
func (e *Editable) Sweep(dead []bool) {
	n := len(e.Insns)
	before := make([]int, n+1) // survivors before element i
	live := 0
	for i := 0; i < n; i++ {
		before[i] = live
		if !dead[i] {
			live++
		}
	}
	before[n] = live
	w := 0
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		e.Insns[w], e.Target[w] = e.Insns[i], renumber(e.Target[i], before, live)
		w++
	}
	e.Insns, e.Target = e.Insns[:w], e.Target[:w]
}

// Edit replaces elements [Start, End) with Repl; Start == End inserts Repl
// ahead of element Start. Replacement instructions carry no branch target.
type Edit struct {
	Start, End int
	Repl       []Instruction
}

// Splice applies edits, ordered by strictly increasing Start and
// non-overlapping, in one left-to-right pass. A branch into an edit's Start
// lands on its first replacement instruction, or on whatever follows the
// edit when Repl is empty; a branch into an edit's interior (Start, End)
// lands on whatever follows the edit. Every other target keeps its element.
func (e *Editable) Splice(edits []Edit) {
	n := len(e.Insns)
	size := n
	for k, ed := range edits {
		if ed.Start > ed.End || ed.End > n || k > 0 && (ed.Start <= edits[k-1].Start || ed.Start < edits[k-1].End) {
			panic(fmt.Sprintf("ebpf: splice edit %d [%d,%d) out of order or range", k, ed.Start, ed.End))
		}
		size += len(ed.Repl) - (ed.End - ed.Start)
	}
	insns := make([]Instruction, 0, size)
	target := make([]int, 0, size)
	at := make([]int, n+1) // where a branch into old element i lands
	k := 0
	for i := 0; i <= n; {
		at[i] = len(insns)
		if k < len(edits) && edits[k].Start == i {
			ed := edits[k]
			k++
			insns = append(insns, ed.Repl...)
			for range ed.Repl {
				target = append(target, -1)
			}
			if ed.End > i {
				for j := i + 1; j < ed.End; j++ {
					at[j] = len(insns)
				}
				i = ed.End
				continue
			}
			// An insertion: element i follows it and keeps its instruction.
		}
		if i < n {
			insns = append(insns, e.Insns[i])
			target = append(target, e.Target[i])
		}
		i++
	}
	for w, t := range target {
		target[w] = renumber(t, at, len(insns))
	}
	e.Insns, e.Target = insns, target
}

// renumber maps target t through remap, a table over the old elements plus
// the one-past-the-end position; out-of-range targets keep their distance
// past the end so Finalize still rejects them.
func renumber(t int, remap []int, size int) int {
	switch {
	case t < 0:
		return t
	case t < len(remap):
		return remap[t]
	default:
		return t - (len(remap) - 1) + size
	}
}

// Finalize recomputes slot-relative branch offsets and returns the program.
func (e *Editable) Finalize() (*Program, error) {
	out := &Program{Name: e.prog.Name, Hook: e.prog.Hook, MCPU: e.prog.MCPU, Insns: e.Insns, Maps: e.prog.Maps}
	idx := out.SlotIndex()
	for i := range e.Insns {
		t := e.Target[i]
		if t < 0 {
			continue
		}
		if t > len(e.Insns) {
			return nil, fmt.Errorf("ebpf: %s: branch at %d targets out-of-range element %d", out.Name, i, t)
		}
		off := idx[t] - (idx[i] + e.Insns[i].Slots())
		if off < -32768 || off > 32767 {
			return nil, fmt.Errorf("ebpf: %s: branch offset %d out of int16 range", out.Name, off)
		}
		e.Insns[i].Offset = int16(off)
	}
	return out, nil
}
