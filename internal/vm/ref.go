package vm

import "merlin/internal/ebpf"

// RefMachine is a Machine pinned to the original switch interpreter
// (exec.go). It is the reference semantics of the VM: the differential rig
// in internal/difftest runs every program on both engines and asserts
// identical r0, Stats, faults and map state, and New falls back to this
// dispatch path if pre-decoding ever rejects a program.
//
// It embeds *Machine, so every harness API (Run, RunBatch, maps, helper
// state) works identically; only the dispatch differs.
type RefMachine struct {
	*Machine
}

// NewRef loads prog into a machine that executes with the reference switch
// interpreter. It does not pre-decode: a machine that runs a handful of
// inputs (the guard's differential observations) would spend more on
// decoding than on the runs.
func NewRef(prog *ebpf.Program, cfg Config) (*RefMachine, error) {
	m, err := load(prog, cfg)
	if err != nil {
		return nil, err
	}
	return &RefMachine{Machine: m}, nil
}

// Engine reports which dispatch path Run uses: "fast" for the pre-decoded
// direct-threaded engine, "ref" for the switch interpreter.
func (m *Machine) Engine() string {
	if m.code != nil {
		return "fast"
	}
	return "ref"
}
