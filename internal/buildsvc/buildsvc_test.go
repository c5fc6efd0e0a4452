package buildsvc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
)

// srcTag folds source bytes into an int32 so synthetic programs differ per
// source.
func srcTag(src []byte) int32 {
	h := fnv.New32a()
	h.Write(src)
	return int32(h.Sum32() & 0x7fffffff)
}

// countingBuild returns a BuildFunc that counts builds per key and a getter.
// The synthetic program encodes a source hash so different sources give
// different bytecode.
func countingBuild(delay time.Duration) (BuildFunc, func(key string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	fn := func(req Request) (*core.Result, error) {
		key := req.Key()
		mu.Lock()
		counts[key]++
		mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		prog := &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, MCPU: 2, Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(0, srcTag(req.Source)),
			ebpf.Exit(),
		}}
		base := &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, MCPU: 2, Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(0, srcTag(req.Source)),
			ebpf.Mov64Imm(1, 0),
			ebpf.Exit(),
		}}
		return &core.Result{Prog: prog, Baseline: base}, nil
	}
	get := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[key]
	}
	return fn, get
}

// TestDedupStress is the seeded -race stress: N goroutines submit identical
// and near-identical sources concurrently; every unique key builds exactly
// once, every waiter of one key receives byte-identical bytecode, and no
// submission errors (the queue is sized to hold all unique builds).
func TestDedupStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const uniques = 8
	const goroutines = 64
	build, builds := countingBuild(5 * time.Millisecond)
	reg := metrics.New()
	s := New(Config{Workers: 4, Queue: uniques, Build: build, Metrics: NewMetrics(reg)})
	defer s.Close()

	sources := make([][]byte, uniques)
	for i := range sources {
		sources[i] = []byte(fmt.Sprintf("module \"m%d\"\n; filler %d\n", i, rng.Int63()))
	}
	type got struct {
		key  string
		enc  []byte
		oc   Outcome
		err  error
		idx  int
		stat ArtifactStats
	}
	results := make([]got, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		idx := g % uniques // identical submissions spread across all uniques
		wg.Add(1)
		go func(g, idx int) {
			defer wg.Done()
			res, err := s.Submit(Request{Source: sources[idx], Func: "f", Opts: core.Options{}})
			if err != nil {
				results[g] = got{err: err, idx: idx}
				return
			}
			results[g] = got{key: res.Key, enc: res.Prog.Encode(), oc: res.Outcome, idx: idx, stat: res.Stats}
		}(g, idx)
	}
	wg.Wait()

	byKey := map[string][]got{}
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("goroutine %d: unexpected error: %v", g, r.err)
		}
		byKey[r.key] = append(byKey[r.key], r)
	}
	if len(byKey) != uniques {
		t.Fatalf("got %d distinct keys, want %d", len(byKey), uniques)
	}
	for key, rs := range byKey {
		if n := builds(key); n != 1 {
			t.Errorf("key %s built %d times, want exactly 1", ShortKey(key), n)
		}
		first := rs[0]
		for _, r := range rs {
			if !bytes.Equal(r.enc, first.enc) {
				t.Errorf("key %s: waiters received different bytecode", ShortKey(key))
			}
			if r.stat.Insns != first.stat.Insns || r.stat.InsnsSaved != first.stat.InsnsSaved {
				t.Errorf("key %s: waiters received different stats", ShortKey(key))
			}
			switch r.oc {
			case OutcomeBuilt, OutcomeCoalesced, OutcomeCached:
			default:
				t.Errorf("key %s: unexpected outcome %q", ShortKey(key), r.oc)
			}
		}
	}
	// Distinct sources must not collide.
	seen := map[string]bool{}
	for _, r := range results {
		seen[string(r.enc)] = true
	}
	if len(seen) != uniques {
		t.Errorf("bytecode collided across sources: %d distinct, want %d", len(seen), uniques)
	}
}

// TestQueueFullTypedReject: with one worker busy and the one queue slot
// occupied, a third unique build gets the typed ErrQueueFull — while a
// duplicate of an in-flight build still coalesces fine.
func TestQueueFullTypedReject(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	build := func(req Request) (*core.Result, error) {
		started <- struct{}{}
		<-release
		prog := &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, MCPU: 2, Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(0, 0), ebpf.Exit(),
		}}
		return &core.Result{Prog: prog, Baseline: prog.Clone()}, nil
	}
	s := New(Config{Workers: 1, Queue: 1, Build: build})
	defer func() {
		s.Close()
	}()

	reqA := Request{Source: []byte("module \"a\"\n"), Func: "f"}
	reqB := Request{Source: []byte("module \"b\"\n"), Func: "f"}
	reqC := Request{Source: []byte("module \"c\"\n"), Func: "f"}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Submit(reqA) }()
	<-started // worker now blocked inside A's build

	wg.Add(1)
	go func() { defer wg.Done(); s.Submit(reqB) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Submit(reqC); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue returned %v, want ErrQueueFull", err)
	}
	// A duplicate of the in-flight A coalesces — it needs no queue slot.
	wg.Add(1)
	var dupOutcome Outcome
	go func() {
		defer wg.Done()
		if res, err := s.Submit(reqA); err == nil {
			dupOutcome = res.Outcome
		}
	}()

	close(release)
	wg.Wait()
	if dupOutcome != OutcomeCoalesced && dupOutcome != OutcomeCached {
		t.Fatalf("duplicate of in-flight build got outcome %q", dupOutcome)
	}
}

// TestArtifactCachePersistence: a build's artifact survives service restart;
// the warm submission reports OutcomeCached with zero new builds and the
// original build's stats.
func TestArtifactCachePersistence(t *testing.T) {
	dir := t.TempDir()
	build, builds := countingBuild(0)
	req := Request{Source: []byte("module \"p\"\n"), Func: "f"}

	cache, err := OpenArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Build: build, Cache: cache})
	cold, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Outcome != OutcomeBuilt {
		t.Fatalf("cold outcome %q, want built", cold.Outcome)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cache2, err := OpenArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Build: build, Cache: cache2})
	defer s2.Close()
	warm, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Outcome != OutcomeCached {
		t.Fatalf("warm outcome %q, want cached", warm.Outcome)
	}
	if builds(req.Key()) != 1 {
		t.Fatalf("warm submission re-built: %d builds", builds(req.Key()))
	}
	if !bytes.Equal(warm.Prog.Encode(), cold.Prog.Encode()) {
		t.Fatal("cached bytecode differs from built bytecode")
	}
	if warm.Stats.Insns != cold.Stats.Insns || warm.Stats.BuildNanos != cold.Stats.BuildNanos {
		t.Fatalf("cached stats differ: %+v vs %+v", warm.Stats, cold.Stats)
	}
}

// TestBuildFailurePropagates: a failing build reaches every waiter and is
// not cached — the next submission retries.
func TestBuildFailurePropagates(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	boom := errors.New("boom")
	build := func(req Request) (*core.Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, boom
		}
		prog := &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, MCPU: 2, Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(0, 0), ebpf.Exit(),
		}}
		return &core.Result{Prog: prog, Baseline: prog.Clone()}, nil
	}
	s := New(Config{Workers: 1, Build: build})
	defer s.Close()
	req := Request{Source: []byte("module \"x\"\n"), Func: "f"}
	if _, err := s.Submit(req); !errors.Is(err, boom) {
		t.Fatalf("first submit err %v, want boom", err)
	}
	res, err := s.Submit(req)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if res.Outcome != OutcomeBuilt {
		t.Fatalf("retry outcome %q, want built (failures are not cached)", res.Outcome)
	}
}

// TestKeyCanonicalization: semantically identical options share a key;
// semantic changes split it; plumbing does not.
func TestKeyCanonicalization(t *testing.T) {
	src := []byte("module \"k\"\n")
	base := Request{Source: src, Func: "f", Opts: core.Options{MCPU: 2, KernelALU32: true}}

	// Enable order must not matter; nil Enable equals the full set.
	all := Request{Source: src, Func: "f", Opts: core.Options{MCPU: 2, KernelALU32: true,
		Enable: []core.Optimizer{core.PO, core.CC, core.SLM, core.CPDCE, core.MoF, core.DAO}}}
	if base.Key() != all.Key() {
		t.Error("nil Enable and full reordered Enable must share a key")
	}
	subset := base
	subset.Opts.Enable = []core.Optimizer{core.DAO}
	if base.Key() == subset.Key() {
		t.Error("optimizer subset must change the key")
	}
	// MCPU 0 defaults to 2 inside core.Build — same build, same key.
	zero := base
	zero.Opts.MCPU = 0
	if base.Key() != zero.Key() {
		t.Error("MCPU 0 and 2 are the same build and must share a key")
	}
	// Plumbing (metrics, superopt cache handle and worker count) is not
	// semantic.
	plumbed := base
	plumbed.Opts.Metrics = core.NewMetrics(metrics.New())
	if base.Key() != plumbed.Key() {
		t.Error("metrics plumbing must not change the key")
	}
	soA := base
	soA.Opts.Superopt = &superopt.Config{Budget: 1000, Workers: 1}
	soB := base
	soB.Opts.Superopt = &superopt.Config{Budget: 1000, Workers: 8, Cache: superopt.NewMemCache()}
	if soA.Key() != soB.Key() {
		t.Error("superopt cache handle and worker count must not change the key")
	}
	soC := base
	soC.Opts.Superopt = &superopt.Config{Budget: 2000}
	if soA.Key() == soC.Key() {
		t.Error("superopt budget is part of the key (budget-qualified, like verdicts)")
	}
	// The pass time budget is not semantic: a build it changed is never
	// cached.
	slow, fast := base, base
	slow.Opts.PassTimeout, fast.Opts.PassTimeout = 30*time.Second, 2*time.Second
	if slow.Key() != fast.Key() {
		t.Error("PassTimeout must not change the key")
	}
	// Different source or func must split the key.
	otherSrc := Request{Source: []byte("module \"k2\"\n"), Func: "f", Opts: base.Opts}
	otherFn := Request{Source: src, Func: "g", Opts: base.Opts}
	if base.Key() == otherSrc.Key() || base.Key() == otherFn.Key() {
		t.Error("source and func must be part of the key")
	}
}

// foldSrc is a small module the real pipeline builds.
const foldSrc = `module "svc"

func fold(%ctx: ptr) -> i64 {
entry:
  %p = load ptr, %ctx, align 8
  %v = load i64, %p, align 8
  %a = bin add i64 %v, 5
  %b = bin add i64 %a, 3
  ret %b
}
`

// TestTimedOutBuildIsNotCached: a build whose guard rolled a pass back on
// its time budget reaches its caller but never the artifact cache, so the
// same request builds again instead of being served the wall clock's
// bytecode.
func TestTimedOutBuildIsNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	stall := &guard.FaultInjector{Pass: "DAO", Mode: guard.FaultStall}
	req := Request{Source: []byte(foldSrc), Func: "fold", Opts: core.Options{
		Hook: ebpf.HookXDP, MCPU: 2, Guard: true, PassTimeout: 20 * time.Millisecond, Injector: stall,
	}}
	for i := 1; i <= 2; i++ {
		res, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeBuilt {
			t.Fatalf("submit %d outcome %q, want built: a timed-out build was cached", i, res.Outcome)
		}
		if !timedOut(res.Result) || stall.Fired() != i {
			t.Fatalf("submit %d: the stall did not time DAO out: fired=%d failures=%v", i, stall.Fired(), res.Result.PassFailures)
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("artifact cache holds %d entries, want none", n)
	}
}

// TestDefaultBuildEndToEnd runs the real pipeline through the service once,
// proving the glue: parse, build, cache, then a cached resubmit.
func TestDefaultBuildEndToEnd(t *testing.T) {
	src := []byte(foldSrc)
	s := New(Config{Workers: 1})
	defer s.Close()
	req := Request{Source: src, Func: "fold", Opts: core.Options{Hook: ebpf.HookXDP, MCPU: 2}}
	res, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeBuilt || res.Prog == nil || res.Stats.Insns == 0 {
		t.Fatalf("end-to-end build incomplete: %+v", res)
	}
	warm, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Outcome != OutcomeCached {
		t.Fatalf("resubmit outcome %q, want cached", warm.Outcome)
	}
	if !bytes.Equal(warm.Prog.Encode(), res.Prog.Encode()) {
		t.Fatal("cached program differs from built program")
	}
}
