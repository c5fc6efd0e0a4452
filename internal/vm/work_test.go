package vm_test

import (
	"runtime"
	"testing"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/vm"
)

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

// TestNewRefDoesNotPreDecode pins what loading for the reference interpreter
// costs on the corpus's largest Tracee program: less than one pre-decoded
// element per instruction, where vm.New's code table alone is that much. A
// NewRef that compiled (and dropped) the program again would fail here.
func TestNewRefDoesNotPreDecode(t *testing.T) {
	var largest *corpus.ProgramSpec
	for _, s := range corpus.Tracee() {
		if largest == nil || s.Mod.Funcs[0].NumInstrs() > largest.Mod.Funcs[0].NumInstrs() {
			largest = s
		}
	}
	res, err := core.Build(largest.Mod, largest.Func, core.Options{Hook: largest.Hook, MCPU: largest.MCPU})
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Baseline
	codeTable := uint64(len(prog.Insns)) * uint64(vm.UopSize)
	newRef := func() {
		if _, err := vm.NewRef(prog, vm.Config{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	newFast := func() {
		if _, err := vm.New(prog, vm.Config{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	refBytes, fastBytes := bytesPerRun(10, newRef), bytesPerRun(10, newFast)
	refAllocs, fastAllocs := testing.AllocsPerRun(10, newRef), testing.AllocsPerRun(10, newFast)
	t.Logf("%s, %d instructions: NewRef %d B in %.0f allocations, New %d B in %.0f", largest.Name, len(prog.Insns), refBytes, refAllocs, fastBytes, fastAllocs)
	if refBytes >= codeTable {
		t.Errorf("NewRef allocates %d B, at least the %d B of a pre-decoded code table", refBytes, codeTable)
	}
	if fastBytes < refBytes+codeTable {
		t.Errorf("New allocates %d B, less than NewRef's %d B plus a code table (%d B): the pin no longer tells them apart", fastBytes, refBytes, codeTable)
	}
	if refAllocs >= fastAllocs {
		t.Errorf("NewRef makes %.0f allocations, New %.0f: NewRef should make fewer", refAllocs, fastAllocs)
	}
}
