// Package bopt implements Merlin's bytecode refinement tier (§4.2): the
// optimizations that run on emitted eBPF bytecode right before it would be
// loaded with bpf(). Passes:
//
//   - CPDCE    — constant propagation + dead code elimination (Opt 1, Fig 4)
//   - SLM      — superword-level merging of adjacent stores (Opt 2, Fig 5)
//   - Compact  — code compaction with ALU32 movl (Opt 5, Fig 8)
//   - Peephole — shift/mask rewriting and algebraic cleanups (Opt 6, Fig 9)
//
// All passes preserve program semantics instruction-for-instruction: they
// are validated by differential execution against the unoptimized program in
// the test suite and by the verifier's acceptance of every output.
package bopt

import (
	"time"

	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// Options gates passes on the deployment target.
type Options struct {
	// ALU32 permits emitting ALU32 instructions during refinement, even for
	// programs compiled at mcpu=v2 — the paper's "code compaction with
	// unsupported instructions". Disable for kernels whose verifier cannot
	// track 32-bit ops (pre-5.13 quirks, §4.2).
	ALU32 bool
}

// Stat records one pass execution.
type Stat struct {
	Pass     string
	Applied  int
	Duration time.Duration
	NIBefore int
	NIAfter  int
}

// Pass is a bytecode transformation returning how many rewrites it applied.
type Pass struct {
	Name string
	Run  func(*ebpf.Program, Options) (*ebpf.Program, int, error)
}

// Pipeline returns the refinement passes in the order Merlin applies them.
// The dependency analysis (Dep) is charged separately inside each pass via
// the analysis package; RunAll surfaces its cost as a synthetic stat.
func Pipeline() []Pass {
	return []Pass{
		{Name: "CP&DCE", Run: CPDCE},
		{Name: "SLM", Run: SLM},
		{Name: "CC", Run: Compact},
		{Name: "PO", Run: Peephole},
	}
}

// RunAll applies the full refinement pipeline and returns the refined
// program plus per-pass stats. The input program is not modified.
func RunAll(prog *ebpf.Program, opts Options) (*ebpf.Program, []Stat, error) {
	cur := prog.Clone()
	var stats []Stat

	// Dep: the shared static analysis. Its results are recomputed inside
	// passes after mutations; this initial build is the analysis cost the
	// compilation-cost experiment reports.
	depStart := time.Now()
	cfg, err := analysis.BuildCFG(cur)
	if err != nil {
		return nil, nil, err
	}
	analysis.Liveness(cfg)
	analysis.Constants(cfg)
	stats = append(stats, Stat{Pass: "Dep", Duration: time.Since(depStart), NIBefore: cur.NI(), NIAfter: cur.NI()})

	for _, p := range Pipeline() {
		start := time.Now()
		niBefore := cur.NI()
		next, applied, err := p.Run(cur, opts)
		if err != nil {
			return nil, nil, err
		}
		cur = next
		stats = append(stats, Stat{
			Pass: p.Name, Applied: applied, Duration: time.Since(start),
			NIBefore: niBefore, NIAfter: cur.NI(),
		})
	}
	return cur, stats, nil
}

// branchTargets resolves prog's branches and marks, per element, whether
// some branch lands on it.
func branchTargets(prog *ebpf.Program) (targets []int, isTarget []bool, err error) {
	targets, err = prog.Targets()
	if err != nil {
		return nil, nil, err
	}
	return targets, landings(targets), nil
}

// landings marks, per element, whether some branch in targets lands on it.
func landings(targets []int) []bool {
	is := make([]bool, len(targets))
	for _, t := range targets {
		if t >= 0 {
			is[t] = true
		}
	}
	return is
}

// sweep returns prog, whose resolved branch targets are targets, without the
// elements marked dead; a branch into a removed element lands on the next
// survivor.
func sweep(prog *ebpf.Program, targets []int, dead []bool) (*ebpf.Program, error) {
	ed := ebpf.EditableOf(prog, targets)
	ed.Sweep(dead)
	return ed.Finalize()
}
