package guard

import (
	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// ObserveFast is Observe on the pre-decoded engine (vm.New), for the engine
// parity tests.
func ObserveFast(prog *ebpf.Program, inputs []Input) *Observation {
	return observe(prog, inputs, vm.New)
}

// Parts returns what an observation recorded.
func (o *Observation) Parts() (rets []int64, errs []error, maps [][]byte, loadErr error) {
	return o.rets, o.errs, o.maps, o.loadErr
}
