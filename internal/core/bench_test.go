package core

import (
	"testing"
	"time"

	"merlin/internal/analysis"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/superopt"
	"merlin/internal/verifier"
	"merlin/internal/vm"
)

// The per-program stages of a cold build — clone, validate, lower, analyse,
// load, observe, verify — on the corpus's largest XDP program and its
// largest Tracee program, and a whole cold pass over the benchmark's build
// set. No gate reads these; they exist so a regression in any of them is one
// command away:
//
//	go test ./internal/core -run '^$' -bench 'Clone|Validate|Compile|Constants|VMNew|Observe|Verify' -benchmem
//
// BenchmarkColdPass is the allocation profile's recipe (EXPERIMENTS.md):
//
//	go test ./internal/core -run '^$' -bench ColdPass -benchtime 10x -cpuprofile cpu.out -memprofile mem.out -memprofilerate 65536

type benchSubject struct {
	name     string
	spec     *corpus.ProgramSpec
	front    *ir.Module    // inlined, generically cleaned: what the pipeline lowers
	baseline *ebpf.Program // its lowering: what the guard loads and the verifier checks
	cfg      *analysis.CFG // the baseline's, as the Dep stage builds it
	inputs   []guard.Input // a deployment build's differential inputs
}

func benchSubjects(b *testing.B) []benchSubject {
	b.Helper()
	var balancer, largest *corpus.ProgramSpec
	for _, s := range corpus.XDP() {
		if s.Name == "xdp-balancer" {
			balancer = s
		}
	}
	for _, s := range corpus.Tracee() {
		if largest == nil || s.Mod.Funcs[0].NumInstrs() > largest.Mod.Funcs[0].NumInstrs() {
			largest = s
		}
	}
	var out []benchSubject
	for _, spec := range []*corpus.ProgramSpec{balancer, largest} {
		front := ir.Clone(spec.Mod)
		if _, err := irpass.Inline(front); err != nil {
			b.Fatal(err)
		}
		(&irpass.Manager{Passes: irpass.Generic()}).Run(front)
		baseline, err := codegen.Compile(front, spec.Func, codegen.Options{MCPU: spec.MCPU, Hook: spec.Hook})
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := analysis.BuildCFG(baseline)
		if err != nil {
			b.Fatal(err)
		}
		inputs := guard.Inputs(spec.Hook, 4, guardDiffSeed)
		out = append(out, benchSubject{spec.Name, spec, front, baseline, cfg, inputs})
	}
	return out
}

func benchEach(b *testing.B, fn func(b *testing.B, s benchSubject)) {
	for _, s := range benchSubjects(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(b, s)
			}
		})
	}
}

func BenchmarkClone(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) { ir.Clone(s.front) })
}

func BenchmarkValidate(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if err := ir.Validate(s.front); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkCompile(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if _, err := codegen.Compile(s.front, s.spec.Func, codegen.Options{MCPU: s.spec.MCPU, Hook: s.spec.Hook}); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkConstants(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) { analysis.Constants(s.cfg) })
}

func BenchmarkVMNew(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if _, err := vm.New(s.baseline, vm.Config{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkObserve(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) { guard.Observe(s.baseline, s.inputs) })
}

func BenchmarkVerify(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if st := verifier.Verify(s.baseline, verifier.Options{}); !st.Passed {
			b.Fatal(st.Err)
		}
	})
}

// BenchmarkColdPass is one cold pass per iteration over the benchmark's
// 37-program build set (every XDP program and the first six of each security
// suite), as a build service runs it from empty caches: each program's
// printed source parsed afresh and built with deployment options — guarded,
// verified, four differential inputs, the superoptimizer on with a fresh
// in-memory verdict cache per pass.
func BenchmarkColdPass(b *testing.B) {
	specs := corpus.XDP()
	for _, suite := range [][]*corpus.ProgramSpec{corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		specs = append(specs, suite[:6]...)
	}
	sources := make([]string, len(specs))
	for i, s := range specs {
		sources[i] = ir.Print(s.Mod)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := superopt.NewMemCache()
		for k, s := range specs {
			mod, err := ir.Parse(sources[k])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Build(mod, s.Func, Options{
				Hook: s.Hook, MCPU: s.MCPU, KernelALU32: true,
				Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: 30 * time.Second,
				Superopt: &superopt.Config{Cache: cache},
			}); err != nil {
				b.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
}
