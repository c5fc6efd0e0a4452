package core

import (
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/verifier"
	"merlin/internal/vm"
)

// The four per-instruction stages of a cold build — validate, lower, load,
// verify — on the corpus's largest XDP program and its largest Tracee
// program. No gate reads these; they exist so a regression in any of them is
// one command away:
//
//	go test ./internal/core -run '^$' -bench 'Validate|Compile|VMNew|Verify' -benchmem

type benchSubject struct {
	name     string
	spec     *corpus.ProgramSpec
	front    *ir.Module    // inlined, generically cleaned: what the pipeline lowers
	baseline *ebpf.Program // its lowering: what the guard loads and the verifier checks
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
		out = append(out, benchSubject{spec.Name, spec, front, baseline})
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

func BenchmarkVMNew(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if _, err := vm.New(s.baseline, vm.Config{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkVerify(b *testing.B) {
	benchEach(b, func(b *testing.B, s benchSubject) {
		if st := verifier.Verify(s.baseline, verifier.Options{}); !st.Passed {
			b.Fatal(st.Err)
		}
	})
}
