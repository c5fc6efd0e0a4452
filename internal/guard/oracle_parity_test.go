package guard_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/superopt"
)

// The guard's observations run on the reference interpreter. These tests
// hold that choice to the pre-decoded engine on real programs: for every
// program of the benchmark's build set, baseline and optimized, an
// observation on either engine records the same returns, faults and final
// map contents, and a corrupted rewrite is rejected on both.

// buildSet is the benchmark's build set: every XDP program plus the head of
// each security suite.
func buildSet() []*corpus.ProgramSpec {
	set := corpus.XDP()
	for _, suite := range [][]*corpus.ProgramSpec{corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		set = append(set, suite[:6]...)
	}
	return set
}

// sameObservation reports the first difference between two observations'
// records, or nil.
func sameObservation(a, b *guard.Observation) error {
	retsA, errsA, mapsA, loadA := a.Parts()
	retsB, errsB, mapsB, loadB := b.Parts()
	if fmt.Sprint(loadA) != fmt.Sprint(loadB) {
		return fmt.Errorf("load: %v vs %v", loadA, loadB)
	}
	if len(retsA) != len(retsB) || len(mapsA) != len(mapsB) {
		return fmt.Errorf("shape: %d/%d runs, %d/%d maps", len(retsA), len(retsB), len(mapsA), len(mapsB))
	}
	for i := range retsA {
		if retsA[i] != retsB[i] {
			return fmt.Errorf("input %d: r0 %d vs %d", i, retsA[i], retsB[i])
		}
		if fmt.Sprint(errsA[i]) != fmt.Sprint(errsB[i]) {
			return fmt.Errorf("input %d: fault %v vs %v", i, errsA[i], errsB[i])
		}
	}
	for i := range mapsA {
		if !bytes.Equal(mapsA[i], mapsB[i]) {
			return fmt.Errorf("map %d differs", i)
		}
	}
	return nil
}

func TestObservationEngineParity(t *testing.T) {
	cache := superopt.NewMemCache()
	for _, spec := range buildSet() {
		res, err := core.Build(spec.Mod, spec.Func, core.Options{
			Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
			Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: 30 * time.Second,
			Superopt: &superopt.Config{Cache: cache},
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		inputs := guard.Inputs(spec.Hook, 64, 40)
		var obs []*guard.Observation
		for k, prog := range []*ebpf.Program{res.Baseline, res.Prog} {
			o := guard.Observe(prog, inputs)
			if err := sameObservation(o, guard.ObserveFast(prog, inputs)); err != nil {
				t.Errorf("%s %s: reference vs pre-decoded: %v", spec.Name, [...]string{"baseline", "optimized"}[k], err)
			}
			obs = append(obs, o)
		}
		if err := guard.Diff(obs[0], obs[1]); err != nil {
			t.Errorf("%s: optimized diverges from baseline: %v", spec.Name, err)
		}

		corrupt := (&guard.FaultInjector{Pass: "*", Mode: guard.FaultCorrupt}).MutateBytecode("PO", res.Prog)
		if corrupt == res.Prog {
			t.Fatalf("%s: the corruption found no exit", spec.Name)
		}
		errRef := guard.Diff(guard.Observe(res.Prog, inputs), guard.Observe(corrupt, inputs))
		errFast := guard.Diff(guard.ObserveFast(res.Prog, inputs), guard.ObserveFast(corrupt, inputs))
		if errRef == nil || errFast == nil || errRef.Error() != errFast.Error() {
			t.Errorf("%s: corrupted rewrite: reference says %v, pre-decoded says %v; want the same rejection", spec.Name, errRef, errFast)
		}
	}
}
