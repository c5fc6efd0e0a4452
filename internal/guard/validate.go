package guard

import (
	"bytes"
	"fmt"
	"slices"

	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// ValidateProgram checks the cheap structural invariants every pass output
// must satisfy before it is allowed to replace the pre-pass program:
//
//   - the program is non-empty and cannot fall off the end
//   - it survives an encode/decode roundtrip through the wire format
//   - every branch target lands on an instruction boundary in range, which
//     is all a control-flow graph needs to be built over it
func ValidateProgram(prog *ebpf.Program) error {
	if prog == nil || len(prog.Insns) == 0 {
		return fmt.Errorf("guard: empty program")
	}
	if last := prog.Insns[len(prog.Insns)-1]; !last.Terminates() {
		return fmt.Errorf("guard: program falls off the end (%s)", ebpf.Mnemonic(last))
	}
	raw := prog.Encode()
	insns, err := ebpf.Decode(raw)
	if err != nil {
		return fmt.Errorf("guard: roundtrip decode: %w", err)
	}
	if len(insns) != len(prog.Insns) {
		return fmt.Errorf("guard: roundtrip length %d != %d", len(insns), len(prog.Insns))
	}
	re := (&ebpf.Program{Insns: insns}).Encode()
	if !bytes.Equal(raw, re) {
		return fmt.Errorf("guard: encode/decode roundtrip mismatch")
	}
	if _, err := prog.Targets(); err != nil {
		return fmt.Errorf("guard: branch targets: %w", err)
	}
	return nil
}

// Observation is one program's recorded behaviour on a set of sampled inputs:
// what loading it said, what each run returned or faulted with, and every
// map's contents after the last run. Two observations taken on the same
// inputs are all a differential check compares, so the guarded pipeline loads
// each program once and carries the accepted program's observation forward as
// the next pass's "before".
type Observation struct {
	prog    *ebpf.Program
	loadErr error
	rets    []int64
	errs    []error
	maps    [][]byte
}

// Observe loads prog into a fresh VM (fixed seed) and records its behaviour
// on inputs, in order, on one machine — maps and helper state persist from
// run to run as they do for an attached program. Every run gets a private
// copy of its input: programs rewrite packets in place, and a later
// observation must see the bytes this one saw.
func Observe(prog *ebpf.Program, inputs []Input) *Observation {
	o := &Observation{prog: prog}
	m, err := vm.New(prog, vm.Config{Seed: 7})
	if err != nil {
		o.loadErr = err
		return o
	}
	o.rets = make([]int64, len(inputs))
	o.errs = make([]error, len(inputs))
	for i, in := range inputs {
		o.rets[i], _, o.errs[i] = m.Run(bytes.Clone(in.Ctx), bytes.Clone(in.Pkt))
	}
	o.maps = make([][]byte, m.NumMaps())
	for i := range o.maps {
		o.maps[i] = bytes.Clone(m.Map(i).Backing())
	}
	return o
}

// SameProgram reports whether a and b are instruction- and map-spec-
// identical. Nothing else of a program reaches the VM, so an observation of
// one is an observation of the other: identity is a proof of equivalence,
// not a skipped check.
func SameProgram(a, b *ebpf.Program) bool {
	return slices.Equal(a.Insns, b.Insns) && slices.Equal(a.Maps, b.Maps)
}

// Diff reports the first divergence between two observations of the same
// inputs — map count, load failure, return value or error behaviour per
// input, final map contents — or nil when post is observationally equivalent
// to pre.
func Diff(pre, post *Observation) error {
	if len(pre.prog.Maps) != len(post.prog.Maps) {
		return fmt.Errorf("guard: map count changed: %d -> %d", len(pre.prog.Maps), len(post.prog.Maps))
	}
	if pre.loadErr != nil {
		return fmt.Errorf("guard: load pre: %w", pre.loadErr)
	}
	if post.loadErr != nil {
		return fmt.Errorf("guard: load post: %w", post.loadErr)
	}
	for i := range pre.rets {
		errA, errB := pre.errs[i], post.errs[i]
		if (errA == nil) != (errB == nil) {
			return fmt.Errorf("guard: input %d: error divergence: %v vs %v", i, errA, errB)
		}
		if pre.rets[i] != post.rets[i] {
			return fmt.Errorf("guard: input %d: result %d vs %d", i, pre.rets[i], post.rets[i])
		}
	}
	for i := range pre.maps {
		if !bytes.Equal(pre.maps[i], post.maps[i]) {
			return fmt.Errorf("guard: map %d (%s) diverged", i, pre.prog.Maps[i].Name)
		}
	}
	return nil
}

// DiffPrograms executes pre and post on the sampled inputs with identical VM
// seeds and reports the first divergence in return value, error behaviour, or
// final map contents. A nil return means the programs are observationally
// equivalent on these inputs.
func DiffPrograms(pre, post *ebpf.Program, inputs []Input) error {
	return Diff(Observe(pre, inputs), Observe(post, inputs))
}
