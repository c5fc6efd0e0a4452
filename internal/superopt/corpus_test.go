package superopt_test

import (
	"fmt"
	"testing"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

// buildMerlinOnly compiles every XDP corpus program through the full Merlin
// pipeline without the superopt tier.
func buildMerlinOnly(t *testing.T) map[string]*ebpf.Program {
	t.Helper()
	progs := map[string]*ebpf.Program{}
	for _, spec := range corpus.XDP() {
		res, err := core.Build(spec.Mod, spec.Func, core.Options{
			Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		progs[spec.Name] = res.Prog
	}
	return progs
}

// totalCycles runs prog over the sampled inputs with a metrics-instrumented
// vm and reads the cycle total back from the run histogram, as the
// acceptance criterion prescribes.
func totalCycles(t *testing.T, prog *ebpf.Program, inputs []guard.Input) uint64 {
	t.Helper()
	reg := metrics.New()
	m, err := vm.New(prog, vm.Config{Seed: 7, Metrics: vm.NewMetrics(reg)})
	if err != nil {
		t.Fatalf("%s: vm.New: %v", prog.Name, err)
	}
	for _, in := range inputs {
		_, _, _ = m.Run(in.Ctx, in.Pkt)
	}
	cycles, ok := reg.Snapshot()["merlin_vm_run_cycles_sum"]
	if !ok {
		t.Fatalf("%s: run cycle histogram missing", prog.Name)
	}
	return uint64(cycles)
}

// TestCorpusColdWarm is the tier's acceptance scenario end to end: a cold
// pass over the whole XDP corpus must find proven rewrites that strictly
// reduce VM cycles on at least two programs while every program stays
// semantically identical; a warm pass over the same corpus with the same
// persistent cache must run zero enumerative searches.
func TestCorpusColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole corpus")
	}
	progs := buildMerlinOnly(t)

	dir := t.TempDir()
	cache, err := superopt.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := superopt.Config{Cache: cache, ALU32: true}

	optimized := map[string]*ebpf.Program{}
	improved := 0
	var cold superopt.Stats
	for name, prog := range progs {
		out, st, err := superopt.Optimize(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		optimized[name] = out
		cold.Windows += st.Windows
		cold.CacheHits += st.CacheHits
		cold.Searches += st.Searches
		cold.Rewrites += st.Rewrites
		if st.Reverted {
			t.Errorf("%s: rewrites reverted by whole-program recheck", name)
		}

		// Semantics: byte-identical results (return values, fault behavior,
		// map contents) on sampled traffic, for every corpus program.
		inputs := guard.Inputs(prog.Hook, 32, 11)
		if err := guard.DiffPrograms(prog, out, inputs); err != nil {
			t.Errorf("%s: superopt output diverges: %v", name, err)
		}
		if st.Rewrites > 0 {
			before := totalCycles(t, prog, inputs)
			after := totalCycles(t, out, inputs)
			t.Logf("%s: rewrites=%d insns %d->%d cycles %d->%d",
				name, st.Rewrites, prog.NI(), out.NI(), before, after)
			if after < before {
				improved++
			}
		}
	}
	if cold.Windows == 0 {
		t.Fatal("no windows extracted from the corpus")
	}
	if improved < 2 {
		t.Errorf("superopt strictly reduced VM cycles on %d corpus programs, want >= 2", improved)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm pass: reopen the cache from disk; every window must be served
	// from it without a single search, and the output must be unchanged.
	cache2, err := superopt.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	cfg.Cache = cache2
	var warm superopt.Stats
	for name, prog := range progs {
		out, st, err := superopt.Optimize(prog, cfg)
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		warm.CacheHits += st.CacheHits
		warm.CacheMisses += st.CacheMisses
		warm.Searches += st.Searches
		if fmt.Sprint(out.Insns) != fmt.Sprint(optimized[name].Insns) {
			t.Errorf("%s: warm output differs from cold output", name)
		}
	}
	if warm.Searches != 0 || warm.CacheMisses != 0 {
		t.Errorf("warm pass ran %d searches (%d misses), want 0", warm.Searches, warm.CacheMisses)
	}
	if warm.CacheHits == 0 {
		t.Error("warm pass reported zero cache hits")
	}
}

// TestSearchOracleParity holds the search loop to its oracle on the windows
// that matter: every distinct canonical window of the benchmark's 37-program
// build set (every XDP program plus the first six of each security suite), as
// the superopt tier meets them after the bytecode refinement.
func TestSearchOracleParity(t *testing.T) {
	set := corpus.XDP()
	for _, suite := range [][]*corpus.ProgramSpec{corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		set = append(set, suite[:6]...)
	}
	if testing.Short() {
		set = set[:8]
	}
	seen := map[string]bool{}
	windows := 0
	for _, spec := range set {
		res, err := core.Build(spec.Mod, spec.Func, core.Options{
			Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		windows += superopt.CheckProgramParity(t, res.Prog, seen)
	}
	t.Logf("%d programs, %d distinct windows", len(set), windows)
	if windows == 0 {
		t.Fatal("the build set produced no windows")
	}
}
