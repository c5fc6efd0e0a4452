package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"merlin/internal/ebpf"
	"merlin/internal/journal"
	"merlin/internal/superopt"
)

// fedV builds a distinct verdict keyed by n.
func fedV(n int) superopt.Verdict {
	return superopt.Verdict{Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(0, int32(n))}}
}

// TestCacheSyncFederatesFleet: verdicts searched on one worker reach every
// other worker through a controller sync round, and a second round is an
// incremental no-op (watermarks advance, nothing re-pulled).
func TestCacheSyncFederatesFleet(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	for i := 0; i < 5; i++ {
		lt.Cache("w1").Put(fmt.Sprintf("k%d", i), fedV(i))
	}
	lt.Cache("w2").Put("k-w2", fedV(99))

	rep, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled != 3 || rep.Pushed != 3 || rep.Skipped != 0 {
		t.Fatalf("sync report %+v, want pulled=3 pushed=3 skipped=0", rep)
	}
	if rep.Entries != 6 || rep.Union != 6 {
		t.Fatalf("sync report %+v, want entries=6 union=6", rep)
	}
	// Every worker now holds the full union — including w3, which never
	// searched anything.
	for _, w := range []string{"w1", "w2", "w3"} {
		if n := lt.Cache(w).Len(); n != 6 {
			t.Errorf("%s cache has %d entries after sync, want 6", w, n)
		}
		if _, ok := lt.Cache(w).Get("k-w2"); !ok {
			t.Errorf("%s missed w2's verdict", w)
		}
	}
	// Second round: incremental. The deltas only contain what the push just
	// added (already in the union), so nothing grows and nothing conflicts.
	rep2, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Union != 6 {
		t.Fatalf("second sync union=%d, want 6", rep2.Union)
	}
	// A fresh verdict on w3 propagates next round.
	lt.Cache("w3").Put("k-late", fedV(7))
	rep3, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Union != 7 {
		t.Fatalf("third sync union=%d, want 7", rep3.Union)
	}
	if _, ok := lt.Cache("w1").Get("k-late"); !ok {
		t.Error("late verdict did not reach w1")
	}
}

// TestCacheSyncSkipsDownWorkers: an unreachable worker is skipped (not
// fatal) and catches up after restart.
func TestCacheSyncSkipsDownWorkers(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	lt.Cache("w1").Put("k", fedV(1))
	lt.Kill("w2")
	rep, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled != 1 || rep.Skipped == 0 {
		t.Fatalf("sync report %+v, want pulled=1 and w2 skipped", rep)
	}
	lt.Restart("w2", true)
	time.Sleep(50 * time.Millisecond) // let w2's circuit breaker cool down
	rep, err = c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lt.Cache("w2").Get("k"); !ok {
		t.Fatalf("restarted worker missed the union (report %+v)", rep)
	}
}

// TestCacheSyncConflictAborts: a worker whose cache holds a different
// verdict for a known key fails the sync loudly, naming the worker, and the
// other workers' caches are not polluted with the conflicting entry.
func TestCacheSyncConflictAborts(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	lt.Cache("w1").Put("shared", fedV(1))
	if _, err := c.CacheSync(); err != nil {
		t.Fatal(err)
	}
	// w2 now holds fedV(1) for "shared". Corrupt a fresh w2 with a
	// conflicting verdict and re-sync: the pull-phase merge must abort.
	lt.Restart("w2", true)
	lt.Cache("w2").Put("shared", fedV(2))
	_, err := c.CacheSync()
	if err == nil {
		t.Fatal("conflicting sync succeeded; want loud error")
	}
	if !strings.Contains(err.Error(), "conflict") || !strings.Contains(err.Error(), "w2") {
		t.Fatalf("conflict error must name the worker and the conflict: %v", err)
	}
	// The union and the healthy worker keep the original verdict.
	if v, ok := lt.Cache("w1").Get("shared"); !ok || v.Repl[0] != fedV(1).Repl[0] {
		t.Fatalf("w1's verdict disturbed by failed sync: %+v ok=%v", v, ok)
	}
}

// TestCacheSyncChunksPastLineLimit: a union several times MaxLine federates
// in both directions — no worker is skipped, and every worker ends up holding
// all of it. As one cachedata/cachemerge line each way, every worker answered
// "err line too long" and the round reported them skipped, forever.
func TestCacheSyncChunksPastLineLimit(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	const perWorker = 40
	pad := strings.Repeat("k", MaxLine/16) // 40 keys of 64 KiB: 2.5 MiB a worker
	for w, name := range []string{"w1", "w2"} {
		for i := 0; i < perWorker; i++ {
			lt.Cache(name).Put(fmt.Sprintf("%s-%d-%d", pad, w, i), fedV(i))
		}
	}
	rep, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled != 3 || rep.Pushed != 3 || rep.Skipped != 0 || rep.Entries != 2*perWorker || rep.Union != 2*perWorker {
		t.Fatalf("sync report %+v, want all three pulled and pushed, none skipped, union %d", rep, 2*perWorker)
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if n := lt.Cache(w).Len(); n != rep.Union {
			t.Errorf("%s holds %d entries after the sync, want the union's %d", w, n, rep.Union)
		}
	}
	// The next round pulls only what the push added and changes nothing.
	rep, err = c.CacheSync()
	if err != nil || rep.Skipped != 0 || rep.Union != 2*perWorker {
		t.Fatalf("second sync %+v err=%v", rep, err)
	}
}

// TestCacheSyncSkipsOtherProducers: a worker whose cache was written by
// another producer version is skipped — its verdicts are not merged and the
// union is not pushed into it — without failing the round for the rest.
func TestCacheSyncSkipsOtherProducers(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	lt.Cache("w1").Put("k", fedV(1))
	lt.with("w2", func(w *LocalWorker) {
		w.Worker.Cache = journal.NewMemStore[superopt.Verdict]("superopt/0", superopt.VerdictCodec{})
		w.Worker.Cache.Put("old", fedV(2))
	})
	rep, err := c.CacheSync()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled != 1 || rep.Pushed != 1 || rep.Skipped != 2 || rep.Union != 1 {
		t.Fatalf("sync report %+v, want w2 skipped in both phases", rep)
	}
	if lt.Cache("w2").Len() != 1 {
		t.Fatal("the union was merged into a cache of another producer")
	}
}
