package core

import (
	"runtime"
	"testing"
	"unsafe"

	"merlin/internal/analysis"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/ir"
	"merlin/internal/irpass"
)

// The guarded build's bookkeeping, counted rather than timed (DESIGN.md §6)
// on the corpus's largest Tracee program: what cloning a module and
// computing constant facts allocate must follow the program's functions and
// blocks, not its instructions.

// largestTracee returns the corpus's largest Tracee program as the pipeline
// lowers it: inlined and generically cleaned, and its baseline bytecode.
func largestTracee(t *testing.T) (*corpus.ProgramSpec, *ir.Module) {
	t.Helper()
	var largest *corpus.ProgramSpec
	for _, s := range corpus.Tracee() {
		if largest == nil || s.Mod.Funcs[0].NumInstrs() > largest.Mod.Funcs[0].NumInstrs() {
			largest = s
		}
	}
	front := ir.Clone(largest.Mod)
	if _, err := irpass.Inline(front); err != nil {
		t.Fatal(err)
	}
	(&irpass.Manager{Passes: irpass.Generic()}).Run(front)
	return largest, front
}

// bytesPerRun is the heap bytes one call of f allocates: the least of three
// averages over runs calls, so a collection or another goroutine's
// allocation during one average does not count.
func bytesPerRun(runs int, f func()) uint64 {
	best := ^uint64(0)
	for k := 0; k < 3; k++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&b)
		best = min(best, (b.TotalAlloc-a.TotalAlloc)/uint64(runs))
	}
	return best
}

// TestCloneWorkFollowsBlocks: ir.Clone allocates a fixed set of slabs and
// two presized maps per function. The one term that follows instructions is
// the pointer map's tables, one per several hundred entries; a clone that
// allocated per instruction (as it did, three times each) fails here.
func TestCloneWorkFollowsBlocks(t *testing.T) {
	_, front := largestTracee(t)
	funcs, blocks, instrs := len(front.Funcs), 0, 0
	for _, f := range front.Funcs {
		blocks += len(f.Blocks)
		instrs += f.NumInstrs()
	}
	allocs := testing.AllocsPerRun(10, func() { ir.Clone(front) })
	limit := 8*(funcs+blocks) + instrs/128
	t.Logf("%d funcs, %d blocks, %d instructions: %.0f allocations (limit %d)", funcs, blocks, instrs, allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("ir.Clone makes %.0f allocations for %d funcs, %d blocks and %d instructions, above 8 per function and block plus one per 128 instructions (%d)",
			allocs, funcs, blocks, instrs, limit)
	}
}

// TestConstantsWorkFollowsBlocks: constant reaching keeps one register
// environment per block (its entry, and its exit during the fixpoint), never
// one per instruction.
func TestConstantsWorkFollowsBlocks(t *testing.T) {
	spec, front := largestTracee(t)
	prog, err := codegen.Compile(front, spec.Func, codegen.Options{MCPU: spec.MCPU, Hook: spec.Hook})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := analysis.BuildCFG(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func() { analysis.Constants(cfg) }
	allocs, bytes := testing.AllocsPerRun(10, run), bytesPerRun(10, run)
	env := uint64(unsafe.Sizeof(analysis.RegConsts{}))
	limit := 3 * uint64(len(cfg.Blocks)) * env // two per block, plus the allocator's rounding
	t.Logf("%d instructions in %d blocks: %.0f allocations, %d B (limit %d B; one environment per instruction would be %d B)",
		len(prog.Insns), len(cfg.Blocks), allocs, bytes, limit, uint64(len(prog.Insns))*env)
	if allocs > 8 {
		t.Errorf("analysis.Constants makes %.0f allocations, want at most 8", allocs)
	}
	if bytes > limit {
		t.Errorf("analysis.Constants allocates %d B for %d blocks, above three environments per block (%d B)", bytes, len(cfg.Blocks), limit)
	}
}
