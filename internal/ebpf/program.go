package ebpf

import (
	"encoding/binary"
	"fmt"
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

// Editable is a branch-target-resolved view of a program used by rewriting
// passes. Targets are element indices, so instructions can be deleted,
// replaced, or inserted without manual offset arithmetic; Finalize re-encodes
// slot-relative offsets.
type Editable struct {
	prog   *Program
	Insns  []Instruction
	Target []int // element index of branch target, or -1 for non-branches
}

// MakeEditable resolves branch targets of p into an Editable view.
// It returns an error if any branch lands outside the program or into the
// middle of a wide instruction.
func MakeEditable(p *Program) (*Editable, error) {
	e := &Editable{
		prog:   p,
		Insns:  append([]Instruction(nil), p.Insns...),
		Target: make([]int, len(p.Insns)),
	}
	idx := p.SlotIndex()
	// Slots are dense: the element starting at each one, -1 for the second
	// slot of a wide instruction.
	slotToElem := make([]int32, idx[len(p.Insns)])
	for i := range p.Insns {
		slotToElem[idx[i]] = int32(i)
		for s := idx[i] + 1; s < idx[i+1]; s++ {
			slotToElem[s] = -1
		}
	}
	for i, ins := range e.Insns {
		e.Target[i] = -1
		if ins.IsCondJump() || ins.IsUncondJump() {
			want := idx[i] + ins.Slots() + int(ins.Offset)
			if want < 0 || want >= len(slotToElem) || slotToElem[want] < 0 {
				return nil, fmt.Errorf("ebpf: %s: branch at %d targets invalid slot %d", p.Name, i, want)
			}
			e.Target[i] = int(slotToElem[want])
		}
	}
	return e, nil
}

// Delete removes instruction i. Branches that targeted i now target its
// successor. Deleting a branch target's only definition is the caller's
// responsibility to have proven safe.
func (e *Editable) Delete(i int) {
	e.Insns = append(e.Insns[:i], e.Insns[i+1:]...)
	e.Target = append(e.Target[:i], e.Target[i+1:]...)
	for k, t := range e.Target {
		if t > i {
			e.Target[k] = t - 1
		}
	}
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

// InsertBefore inserts ins ahead of element i. Branches targeting i are
// redirected to the inserted instruction so fall-through semantics hold.
func (e *Editable) InsertBefore(i int, ins Instruction) {
	e.Insns = append(e.Insns, Instruction{})
	copy(e.Insns[i+1:], e.Insns[i:])
	e.Insns[i] = ins
	e.Target = append(e.Target, 0)
	copy(e.Target[i+1:], e.Target[i:])
	e.Target[i] = -1
	for k := range e.Target {
		if k == i {
			continue
		}
		if e.Target[k] >= i {
			e.Target[k]++
		}
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
