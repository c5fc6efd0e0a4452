// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a pure function returning typed rows;
// cmd/merlin-bench renders them as the paper's tables. The experiment index
// lives in DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"merlin/internal/codegen"
	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/k2"
	"merlin/internal/verifier"
)

// Config controls experiment scope.
type Config struct {
	// SuiteStride samples every Nth program of the big suites (1 = all).
	SuiteStride int
}

// DefaultConfig samples the suites lightly enough for interactive runs.
func DefaultConfig() Config { return Config{SuiteStride: 12} }

// Full runs everything.
func Full() Config { return Config{SuiteStride: 1} }

func (c Config) stride() int {
	if c.SuiteStride < 1 {
		return 1
	}
	return c.SuiteStride
}

func sample(specs []*corpus.ProgramSpec, stride int) []*corpus.ProgramSpec {
	if stride <= 1 {
		return specs
	}
	var out []*corpus.ProgramSpec
	for i := 0; i < len(specs); i += stride {
		out = append(out, specs[i])
	}
	return out
}

// buildOpts derives core options from a corpus spec.
func buildOpts(spec *corpus.ProgramSpec, enable []core.Optimizer, verify bool) core.Options {
	return core.Options{
		Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
		Enable: enable, Verify: verify,
	}
}

// baselineNI compiles the clang-only program (no verification) for size
// accounting.
func baselineNI(spec *corpus.ProgramSpec) (int, error) {
	mod := ir.Clone(spec.Mod)
	if _, err := irpass.Inline(mod); err != nil {
		return 0, err
	}
	(&irpass.Manager{Passes: irpass.Generic()}).Run(mod)
	prog, err := codegen.Compile(mod, spec.Func, codegen.Options{MCPU: spec.MCPU, Hook: spec.Hook})
	if err != nil {
		return 0, err
	}
	return prog.NI(), nil
}

// ---------------------------------------------------------------- Table 1

// Table1Row summarizes one benchmark suite.
type Table1Row struct {
	Suite    string
	Count    int
	Largest  int
	Smallest int
	Average  int
	MCPU     string
}

// Table1 reproduces the benchmark-details table. The stride samples suite
// programs; counts always reflect the full suite.
func Table1(cfg Config) ([]Table1Row, error) {
	suites := []struct {
		name  string
		specs []*corpus.ProgramSpec
	}{
		{"XDP", corpus.XDP()},
		{"Sysdig", corpus.Sysdig()},
		{"Tetragon", corpus.Tetragon()},
		{"Tracee", corpus.Tracee()},
	}
	var rows []Table1Row
	for _, s := range suites {
		specs := s.specs
		measured := specs
		if s.name != "XDP" {
			measured = sample(specs, cfg.stride())
		}
		largest, smallest, total := 0, 1<<30, 0
		for _, spec := range measured {
			ni, err := baselineNI(spec)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", s.name, spec.Name, err)
			}
			if ni > largest {
				largest = ni
			}
			if ni < smallest {
				smallest = ni
			}
			total += ni
		}
		rows = append(rows, Table1Row{
			Suite: s.name, Count: len(specs),
			Largest: largest, Smallest: smallest, Average: total / len(measured),
			MCPU: fmt.Sprintf("v%d", specs[0].MCPU),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row is the capability-matrix comparison of K2 and Merlin.
type Table2Row struct {
	System          string
	InstructionSets string
	Hooks           string
	HelperFunctions string
	MaxSize         string
}

// Table2 reproduces the limitation matrix. K2's cells come from the
// restrictions its implementation actually enforces.
func Table2() []Table2Row {
	return []Table2Row{
		{
			System:          "K2",
			InstructionSets: "v2",
			Hooks:           "XDP only",
			HelperFunctions: fmt.Sprintf("Limited (%d formalized)", len(k2.FormalizedHelpers)),
			MaxSize:         fmt.Sprintf("<%d", k2.MaxProgramSize),
		},
		{
			System:          "Merlin",
			InstructionSets: "-",
			Hooks:           "-",
			HelperFunctions: "-",
			MaxSize:         "1 Million",
		},
	}
}

// ---------------------------------------------------------------- Table 5

// Table5Row reports verifier state-count instability across kernel versions.
type Table5Row struct {
	Metric  string // "peak" or "total"
	Kernel  string
	Program string
	Change  float64 // optimized vs original, percent
}

// Table5 reproduces the state-count instability study: it surveys the
// corpus for the two programs whose verifier state counts move the most
// under optimization (ideally in opposite directions, as the paper observed)
// and reports the peak/total change under both kernel heuristics.
func Table5() ([]Table5Row, error) {
	candidates := corpus.XDP()
	sys := corpus.Sysdig()
	for i := 0; i < len(sys); i += 24 {
		candidates = append(candidates, sys[i])
	}
	type survey struct {
		spec   *corpus.ProgramSpec
		change [2][2]float64 // [version][peak,total]
		mag    float64
	}
	var surveyed []survey
	for _, spec := range candidates {
		res, err := core.Build(spec.Mod, spec.Func, buildOpts(spec, nil, false))
		if err != nil {
			return nil, err
		}
		var s survey
		s.spec = spec
		for vi, ver := range []verifier.KernelVersion{verifier.V519, verifier.V65} {
			before := verifier.Verify(res.Baseline, verifier.Options{Version: ver})
			after := verifier.Verify(res.Prog, verifier.Options{Version: ver})
			if !before.Passed || !after.Passed {
				return nil, fmt.Errorf("table5: %s rejected: %v %v", spec.Name, before.Err, after.Err)
			}
			s.change[vi][0] = pct(before.PeakStates, after.PeakStates)
			s.change[vi][1] = pct(before.TotalStates, after.TotalStates)
			s.mag += abs(s.change[vi][0]) + abs(s.change[vi][1])
		}
		surveyed = append(surveyed, s)
	}
	// Pick the largest mover and the best opposite-direction partner.
	best := 0
	for i, s := range surveyed {
		if s.mag > surveyed[best].mag {
			best = i
		}
	}
	// Partner: the biggest opposite-direction mover, or failing that the
	// second-biggest mover overall.
	partner, partnerMag := (best+1)%len(surveyed), -1.0
	foundOpposite := false
	for i, s := range surveyed {
		if i == best {
			continue
		}
		opposite := s.change[0][1]*surveyed[best].change[0][1] < 0 ||
			s.change[1][1]*surveyed[best].change[1][1] < 0
		switch {
		case opposite && (!foundOpposite || s.mag > partnerMag):
			partner, partnerMag, foundOpposite = i, s.mag, true
		case !foundOpposite && s.mag > partnerMag:
			partner, partnerMag = i, s.mag
		}
	}
	var rows []Table5Row
	for _, s := range []survey{surveyed[best], surveyed[partner]} {
		for vi, kn := range []string{"5.19", "6.5"} {
			rows = append(rows,
				Table5Row{Metric: "peak", Kernel: kn, Program: s.spec.Name, Change: s.change[vi][0]},
				Table5Row{Metric: "total", Kernel: kn, Program: s.spec.Name, Change: s.change[vi][1]},
			)
		}
	}
	return rows, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// pct returns the percentage change from a to b.
func pct(a, b int) float64 {
	if a == 0 {
		return 0
	}
	return (float64(b) - float64(a)) / float64(a) * 100
}

// reduction returns 1 - b/a as a fraction.
func reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

var _ = ebpf.HookXDP // keep import symmetry for sibling files
