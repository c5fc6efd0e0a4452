package journal_test

import (
	"encoding/json"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/journal"
)

// failWrites fails every data write while on is set.
type failWrites struct{ on *bool }

func (p failWrites) Next(op chaos.Op, _ string) chaos.Fault {
	if *p.on && op == chaos.OpWrite {
		return chaos.EIO
	}
	return chaos.None
}

// TestLedgerProbeBackoffCapsAndReattaches: the owners' tests step one or two
// probes; this one walks the whole policy — the probe delay doubles per
// failed probe up to RetryMax and stays there, writes are skipped while
// detached, and a landed probe re-persists the fold with one compaction.
func TestLedgerProbeBackoffCapsAndReattaches(t *testing.T) {
	failing := false
	inj := chaos.Wrap(chaos.OS(), failWrites{&failing})
	inj.SlowDelay = 0
	log, err := journal.OpenWith(t.TempDir(), journal.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	now := time.Unix(1_700_000_000, 0)
	state, folds := 0, 0
	var degraded []string
	var reattached []int
	l := journal.NewLedger(log, journal.LedgerOptions{
		Fold:       func() any { folds++; return state },
		Marker:     func(time.Time) any { return "marker" },
		Degraded:   func(why string) { degraded = append(degraded, why) },
		Reattached: func(n int) { reattached = append(reattached, n) },
		Now:        func() time.Time { return now },

		DegradeAfter: 1, RetryBase: time.Second, RetryMax: 4 * time.Second,
	})

	failing = true
	l.Append(func() any { return 1 }, true)
	if h := l.Health(); !h.Degraded || h.RetryIn != time.Second || len(degraded) != 1 {
		t.Fatalf("after one failed append with DegradeAfter 1: %+v, degraded events %q", h, degraded)
	}
	for _, want := range []time.Duration{2, 4, 4, 4} {
		now = now.Add(l.Health().RetryIn)
		l.Tick()
		if h := l.Health(); !h.Degraded || h.RetryIn != want*time.Second {
			t.Fatalf("after a failed probe: %+v, want retry in %ds", h, want)
		}
	}
	ran := false
	l.Append(func() any { ran = true; return 2 }, true)
	if ran {
		t.Fatal("a degraded ledger encoded a record it was going to skip")
	}

	failing = false
	state = 7
	now = now.Add(4 * time.Second)
	l.Tick()
	if h := l.Health(); h.Degraded || h.Reattaches != 1 || len(reattached) != 1 || folds != 1 {
		t.Fatalf("after the healed probe: %+v, reattached %v, folds %d", h, reattached, folds)
	}
	snap, ok := log.Snapshot()
	var got int
	if !ok || json.Unmarshal(snap, &got) != nil || got != 7 {
		t.Fatalf("snapshot after re-attach = %q (ok=%v), want the fold 7", snap, ok)
	}
	if n := log.Records(); n != 0 {
		t.Fatalf("%d records left after the re-attach compaction", n)
	}
}
