// Package superopt is Merlin's optional third optimization tier: a caching
// peephole superoptimizer in the EPSO tradition ("A Caching-Based Efficient
// Superoptimizer for BPF Bytecode"). It runs after the rule-based bytecode
// refinement and hunts for shorter equivalent sequences that no fixed rewrite
// rule covers.
//
// The tier works on windows: 2-5 consecutive pure-ALU instructions inside one
// basic block. Each window is canonicalized (registers renamed in order of
// first appearance) and looked up in a content-addressed rewrite cache; on a
// miss an enumerative search tries every candidate sequence that is strictly
// shorter than the window, over a bounded ISA subset, pruned structurally and
// filtered by differential execution on input vectors (an exhaustive small
// lattice plus seeded random vectors). Surviving candidates are proven
// against the real internal/vm interpreter, and every accepted build output
// is re-checked whole-program with internal/guard's differential validation.
// Verdicts — including "no improvement found" — are memoized, optionally on
// disk via internal/journal framing, so warm builds skip search entirely.
package superopt

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/vm"
)

// DefaultBudget bounds the candidate sequences enumerated per window search.
// The budget is counted in candidates, not wall time, so verdicts (and the
// cache contents) are deterministic across machines.
const DefaultBudget = 50000

// Config configures one superoptimizer run.
type Config struct {
	// Cache memoizes window verdicts. Nil means a transient in-memory cache
	// private to the call; use OpenCache to share verdicts across builds.
	Cache *Cache
	// Budget caps candidate sequences per window search (0 = DefaultBudget).
	// The budget is part of the cache key: verdicts found under different
	// budgets never shadow each other.
	Budget int
	// Workers sizes the search worker pool (0 = GOMAXPROCS).
	Workers int
	// ALU32 allows replacements to use 32-bit ALU instructions.
	ALU32 bool
	// Seed drives the random test vectors and the whole-program recheck
	// inputs (0 = 1).
	Seed int64
	// DiffInputs is the sample count for the whole-program differential
	// recheck of the rewritten output (0 = 16).
	DiffInputs int
	// Metrics, when set, records window/hit/search/rewrite telemetry.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DiffInputs <= 0 {
		c.DiffInputs = 16
	}
	return c
}

// Stats reports what one Optimize call did.
type Stats struct {
	// Windows is the number of candidate windows extracted (all positions
	// and lengths, before deduplication).
	Windows int
	// UniqueWindows is the number of distinct canonical windows.
	UniqueWindows int
	// CacheHits / CacheMisses count verdict lookups per unique window.
	CacheHits   int
	CacheMisses int
	// Searches counts enumerative searches run — one per cache miss.
	Searches int
	// Candidates counts candidate sequences constructed across all searches.
	Candidates int
	// Rewrites is the number of windows replaced in the output program.
	Rewrites int
	// InsnsSaved is the instruction-slot reduction of the output.
	InsnsSaved int
	// CyclesSaved is the modeled per-execution VM cycle saving of the
	// applied rewrites (ALU cost x instructions removed).
	CyclesSaved uint64
	// SearchTime is the wall time spent searching (sum across workers).
	SearchTime time.Duration
	// Reverted reports that rewrites were found but dropped because the
	// whole-program differential recheck or structural validation failed.
	Reverted bool
}

// Optimize applies the superoptimizer tier to prog and returns the optimized
// program (the input is never mutated; the input pointer is returned
// unchanged when nothing improved). Every applied rewrite has been proven
// equivalent on the vm and the whole output re-checked differentially
// against the input program.
func Optimize(prog *ebpf.Program, cfg Config) (*ebpf.Program, Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	defer func() { cfg.Metrics.record(&st) }()

	windows, err := extractWindows(prog)
	if err != nil {
		return nil, st, fmt.Errorf("superopt: %w", err)
	}
	st.Windows = len(windows)
	if len(windows) == 0 {
		return prog, st, nil
	}

	cache := cfg.Cache
	if cache == nil {
		cache = NewMemCache()
	}

	// Canonicalize every window and dedupe by cache key: identical windows
	// share one verdict no matter where (or in which program) they appear.
	type job struct {
		cw  canonWindow
		key string
	}
	keyed := make([]struct {
		win window
		cw  canonWindow
		key string
	}, len(windows))
	seen := map[string]bool{}
	var jobs []job
	for i, w := range windows {
		cw := canonicalize(w)
		key := cacheKey(cw, cfg.ALU32, cfg.Budget)
		keyed[i].win, keyed[i].cw, keyed[i].key = w, cw, key
		if !seen[key] {
			seen[key] = true
			jobs = append(jobs, job{cw: cw, key: key})
		}
	}
	st.UniqueWindows = len(jobs)

	// Resolve verdicts: cache first, then fan the misses out across the
	// worker pool. Each search is independent and deterministic, so the
	// result is scheduling-invariant.
	verdicts := make(map[string]Verdict, len(jobs))
	var misses []job
	for _, j := range jobs {
		if v, ok := cache.Get(j.key); ok {
			st.CacheHits++
			verdicts[j.key] = v
			continue
		}
		st.CacheMisses++
		misses = append(misses, j)
	}
	if len(misses) > 0 {
		st.Searches = len(misses)
		results := make([]Verdict, len(misses))
		candidates := make([]int, len(misses))
		durs := make([]time.Duration, len(misses))
		// One vector set per live-in count, built before the pool starts and
		// only read by it; building them is search time too.
		setup := time.Now()
		var sets [ebpf.NumRegisters + 1]*vectorSet
		for _, j := range misses {
			if n := bits.OnesCount16(uint16(j.cw.liveIn)); sets[n] == nil {
				sets[n] = newVectorSet(n, cfg.Seed)
			}
		}
		st.SearchTime = time.Since(setup)
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					start := time.Now()
					cw := misses[i].cw
					results[i], candidates[i] = searchWindow(cw, cfg, sets[bits.OnesCount16(uint16(cw.liveIn))])
					durs[i] = time.Since(start)
				}
			}()
		}
		for i := range misses {
			idx <- i
		}
		close(idx)
		wg.Wait()
		keys := make([]string, len(misses))
		for i, j := range misses {
			keys[i] = j.key
			verdicts[j.key] = results[i]
			st.Candidates += candidates[i]
			st.SearchTime += durs[i]
			cfg.Metrics.observeSearch(durs[i])
		}
		// One journal write and sync for the call's verdicts, not one each.
		cache.PutAll(keys, results)
	}

	// Greedy selection: scan left to right, taking the longest improved
	// window at each position. Windows never overlap, so the per-window
	// live-out proofs compose (see DESIGN.md section 11).
	byStart := map[int][]int{}
	for i := range keyed {
		byStart[keyed[i].win.start] = append(byStart[keyed[i].win.start], i)
	}
	for _, is := range byStart {
		sort.Slice(is, func(a, b int) bool { return keyed[is[a]].win.end > keyed[is[b]].win.end })
	}
	// Each accepted replacement turns elements [Start,End) of the input into
	// Repl, already mapped back to actual registers; starts ascend.
	var rewrites []ebpf.Edit
	for i := 0; i < len(prog.Insns); {
		advanced := false
		for _, ki := range byStart[i] {
			k := keyed[ki]
			v := verdicts[k.key]
			if !v.Improved {
				continue
			}
			rewrites = append(rewrites, ebpf.Edit{
				Start: k.win.start,
				End:   k.win.end,
				Repl:  mapToActual(v.Repl, k.cw),
			})
			i = k.win.end
			advanced = true
			break
		}
		if !advanced {
			i++
		}
	}
	if len(rewrites) == 0 {
		return prog, st, nil
	}

	out, err := applyRewrites(prog, rewrites)
	if err != nil {
		st.Reverted = true
		return prog, st, nil
	}
	// Final safety net: structural validation plus whole-program
	// differential execution against the input, exactly as internal/guard
	// validates any bytecode pass. A failure here means a proof gap (or an
	// evaluator/vm divergence); the honest answer is to keep the input.
	if err := guard.ValidateProgram(out); err != nil {
		st.Reverted = true
		return prog, st, nil
	}
	inputs := guard.Inputs(prog.Hook, cfg.DiffInputs, cfg.Seed)
	if err := guard.DiffPrograms(prog, out, inputs); err != nil {
		st.Reverted = true
		return prog, st, nil
	}

	st.Rewrites = len(rewrites)
	st.InsnsSaved = prog.NI() - out.NI()
	st.CyclesSaved = uint64(st.InsnsSaved) * vm.DefaultCosts().ALU
	return out, st, nil
}

// applyRewrites splices the accepted replacements, in ascending start order,
// into a copy of prog in one left-to-right pass. A branch into a window start
// lands on the replacement's first instruction, or on the window's successor
// when the replacement is empty (windows lie inside one basic block, so no
// branch lands in their interior).
func applyRewrites(prog *ebpf.Program, rws []ebpf.Edit) (*ebpf.Program, error) {
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return nil, err
	}
	ed.Splice(rws)
	return ed.Finalize()
}

// mapToActual maps a canonical replacement back to the window's original
// registers.
func mapToActual(repl []ebpf.Instruction, cw canonWindow) []ebpf.Instruction {
	out := make([]ebpf.Instruction, len(repl))
	for i, ins := range repl {
		ins.Dst = cw.toActual[ins.Dst]
		if ins.SourceField() == ebpf.SourceX {
			ins.Src = cw.toActual[ins.Src]
		}
		out[i] = ins
	}
	return out
}
