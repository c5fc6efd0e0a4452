package vm_test

import (
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

// TestSpecialisedKindsOccurInCorpus is the fast engine's specialisation rule
// as a test: an operation has an inline or fused micro-op only if some corpus
// program, built as core's TestCorpusParity builds it (optimised or
// baseline), contains it; everything else is ebpf.EvalALU/EvalJump through
// the generic kinds. A specialisation nobody's program reaches, or one
// orphaned by a codegen change, fails here. -v prints the kind histogram.
func TestSpecialisedKindsOccurInCorpus(t *testing.T) {
	if vm.NumKinds > 51 {
		t.Errorf("%d micro-op kinds, want at most 51", vm.NumKinds)
	}
	var counts [vm.NumKinds]int
	programs, elems := 0, 0
	count := func(prog *ebpf.Program) {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if m.Engine() != "fast" {
			t.Fatalf("%s: engine = %q, want fast", prog.Name, m.Engine())
		}
		m.CountKinds(&counts)
		programs++
		elems += len(prog.Insns)
	}
	cache := superopt.NewMemCache()
	for _, suite := range [][]*corpus.ProgramSpec{corpus.XDP(), corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		for _, spec := range suite {
			res, err := core.Build(spec.Mod, spec.Func, core.Options{
				Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
				Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: 30 * time.Second,
				Superopt: &superopt.Config{Cache: cache},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Suite, spec.Name, err)
			}
			count(res.Prog)
			count(res.Baseline)
		}
	}
	t.Logf("%d programs, %d elements", programs, elems)
	for k, n := range counts {
		t.Logf("%-12s %8d", vm.KindName(k), n)
	}
	for _, s := range vm.Specialisations() {
		n := 0
		for _, k := range s.Kinds {
			n += counts[k]
		}
		if n == 0 {
			t.Errorf("%s is specialised but occurs in no corpus program: route it through the generic kind", s.Name)
		}
	}
}
