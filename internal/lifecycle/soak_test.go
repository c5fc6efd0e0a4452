package lifecycle_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/core"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// The storage-chaos soak drives a manager through deploy / promote /
// rollback / flush / compact churn on two slots while two goroutines serve
// traffic and a seeded injector fires ENOSPC, EIO and torn writes at every
// journal I/O site. It holds the durability contract of DESIGN.md §12: the
// incumbent never stops serving, nothing panics or races, and whatever
// bytes survive recover to a consistent state, on every truncation prefix
// of the surviving segments too.

// soakResult is what one soak observed.
type soakResult struct {
	serves, failures atomic.Uint64
	firstFailure     string // guarded by once
	once             sync.Once
	journal          journal.Stats // zero when the journal never opened
	health           journal.Health
	injected         chaos.Stats
}

func countSource(gen int) lifecycle.Source {
	return func() (*core.Result, error) {
		return &core.Result{Prog: lifecycle.CountProg(fmt.Sprintf("soak-g%d", gen))}, nil
	}
}

// splitmix64 is the churn PRNG, independent of math/rand's ordering.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// soak runs 300 seeded churn operations against a manager journaling to dir
// through a fault injector failing each I/O with probability faultRate.
func soak(t *testing.T, dir string, seed int64, faultRate float64, policy journal.Policy, segmentBytes int64) *soakResult {
	t.Helper()
	res := &soakResult{}
	inj := chaos.Wrap(chaos.OS(), chaos.NewRate(seed, faultRate, chaos.EIO, chaos.ENOSPC, chaos.Torn))
	inj.SlowDelay = 0
	// Opening is a fault surface too: a few attempts, then start degraded
	// the way merlind does.
	var jl *journal.Log
	var err error
	for attempt := 0; attempt < 5 && jl == nil; attempt++ {
		jl, err = journal.OpenWith(dir, journal.Options{FS: inj, SegmentBytes: segmentBytes, Policy: policy})
	}
	m := lifecycle.NewManager(lifecycle.Config{
		ShadowRuns: 3, CanaryRuns: 3, Journal: jl, Metrics: metrics.New(), CompactEvery: 32,
		JournalDegradeAfter: 2, JournalRetryBase: time.Millisecond, JournalRetryMax: 10 * time.Millisecond,
	})
	if jl == nil {
		m.MarkJournalUnavailable(err.Error())
	}
	slots := []string{"alpha", "beta"}
	for _, name := range slots {
		if err := m.DeployWith(name, countSource(0), lifecycle.DeployOptions{SourceDesc: name}); err != nil {
			t.Fatalf("initial deploy %s: %v", name, err)
		}
	}
	serve := func(slot string, b byte) {
		pkt := make([]byte, 64)
		pkt[0] = b
		if rv, _, err := m.Serve(slot, vm.BuildXDPContext(len(pkt)), pkt); err != nil || rv != 2 {
			res.failures.Add(1)
			res.once.Do(func() { res.firstFailure = fmt.Sprintf("slot %s: rv=%d err=%v", slot, rv, err) })
			return
		}
		res.serves.Add(1)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(1); w <= 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(seed) ^ w*0x5851f42d
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := splitmix64(&rng)
				serve(slots[r%2], byte(r>>8))
			}
		}()
	}
	rng, gen := uint64(seed), 1
	for i := 0; i < 300; i++ {
		r := splitmix64(&rng)
		slot := slots[(r>>32)%2]
		switch v := r % 100; {
		case v < 8:
			gen++
			_ = m.DeployWith(slot, countSource(gen), lifecycle.DeployOptions{SourceDesc: slot})
		case v < 14:
			_ = m.Promote(slot, v < 11)
		case v < 16:
			_ = m.Rollback(slot)
		case v < 24:
			_ = m.Flush() // steady-state map drift: the group-commit workload
		case v < 26:
			m.Tick()
		case v < 28:
			m.Compact()
		default:
			serve(slot, byte(r>>16))
		}
	}
	close(stop)
	wg.Wait()
	_ = m.Flush()
	res.health = m.JournalHealth()
	res.injected = inj.Stats()
	if jl != nil {
		res.journal = jl.Stats()
		_ = jl.Close()
	}
	t.Logf("serves=%d failures=%d journal=%+v injected=%d torn=%d degraded=%v",
		res.serves.Load(), res.failures.Load(), res.journal, res.injected.Injected, res.injected.TornWrites, res.health.Degraded)
	if n := res.failures.Load(); n != 0 {
		t.Fatalf("incumbent stopped serving %d times; first: %s", n, res.firstFailure)
	}
	return res
}

// verifyRecovery opens dir fault-free and recovers: Recover must not fail
// and every recovered slot must serve the incumbent verdict. Losing state
// is consistent (older state always is); corrupt state never.
func verifyRecovery(dir string, _ journal.Prefix) error {
	jl, err := journal.Open(dir)
	if err != nil {
		return err
	}
	defer jl.Close()
	m := lifecycle.NewManager(lifecycle.Config{Journal: jl})
	if _, err := m.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	for _, name := range m.Slots() {
		pkt := make([]byte, 64)
		if rv, _, err := m.Serve(name, vm.BuildXDPContext(len(pkt)), pkt); err != nil || rv != 2 {
			return fmt.Errorf("recovered slot %s does not serve: rv=%d err=%v", name, rv, err)
		}
	}
	return nil
}

// TestChaosSoak: 1% storage faults under three fsync policies and three
// seeds, concurrent traffic under -race, then recovery of what survived
// and of every truncation prefix of it.
func TestChaosSoak(t *testing.T) {
	for _, pol := range []struct {
		name   string
		policy journal.Policy
	}{
		{"sync", journal.Policy{Mode: journal.ModeSync}},
		{"group", journal.Policy{Mode: journal.ModeGroup}},
		{"async", journal.Policy{Mode: journal.ModeAsync}},
	} {
		for seed := 1; seed <= 3; seed++ {
			t.Run(pol.name+"/seed"+strconv.Itoa(seed), func(t *testing.T) {
				dir := t.TempDir()
				if soak(t, dir, int64(seed*7919), 0.01, pol.policy, 2<<10).serves.Load() == 0 {
					t.Fatal("soak served nothing")
				}
				if err := verifyRecovery(dir, journal.Prefix{}); err != nil {
					t.Fatalf("post-soak recovery inconsistent: %v", err)
				}
				if err := journal.SweepPrefixes(dir, 6, verifyRecovery); err != nil {
					t.Fatalf("prefix sweep: %v", err)
				}
			})
		}
	}
}

// TestSoakGroupCommitBatches: fault-free, so the fsync arithmetic is exact.
// Group commit takes fewer fsyncs than records, while stage transitions
// still fsync individually. Big segments keep rotation fsyncs out of it.
func TestSoakGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	res := soak(t, dir, 42, 0, journal.Policy{Mode: journal.ModeGroup}, 4<<20)
	j := res.journal
	if j.Appends == 0 {
		t.Fatal("no appends; churn broken")
	}
	if j.Fsyncs >= j.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", j.Fsyncs, j.Appends)
	}
	if j.ForcedFsyncs == 0 {
		t.Fatal("no forced fsyncs: stage transitions lost their individual durability")
	}
	if res.health.Degraded {
		t.Fatalf("degraded with no faults injected: %+v", res.health)
	}
	if err := verifyRecovery(dir, journal.Prefix{}); err != nil {
		t.Fatal(err)
	}
}

// TestSoakRotationUnderChurn: 1 KiB segments must rotate under churn, and
// the sweep must hold across segment boundaries.
func TestSoakRotationUnderChurn(t *testing.T) {
	dir := t.TempDir()
	if res := soak(t, dir, 7, 0, journal.Policy{}, 1<<10); res.journal.Rotations == 0 {
		t.Fatalf("no segment rotations with 1KiB segments: %+v", res.journal)
	}
	if err := journal.SweepPrefixes(dir, 4, verifyRecovery); err != nil {
		t.Fatalf("multi-segment prefix sweep: %v", err)
	}
}
