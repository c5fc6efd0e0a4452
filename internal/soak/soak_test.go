package soak

import (
	"os"
	"strconv"
	"testing"

	"merlin/internal/journal"
)

// lifecycleRecovers is journal.SweepPrefixes' check for a lifecycle state
// dir.
func lifecycleRecovers(dir string, _ journal.Prefix) error {
	_, err := VerifyRecovery(dir)
	return err
}

// envInt lets ci.sh scale the soak (MERLIN_SOAK_OPS, MERLIN_SOAK_SEEDS)
// without a custom flag plumbing through `go test`.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosSoak is the headline acceptance test: seeded storage faults at
// every journal I/O site, concurrent traffic under -race, and afterwards a
// full recovery audit including the truncation-prefix sweep. Run across
// several seeds and both fsync policies that matter.
func TestChaosSoak(t *testing.T) {
	ops := envInt("MERLIN_SOAK_OPS", 300)
	seeds := envInt("MERLIN_SOAK_SEEDS", 3)
	for _, pol := range []struct {
		name   string
		policy journal.Policy
	}{
		{"sync", journal.Policy{Mode: journal.ModeSync}},
		{"group", journal.Policy{Mode: journal.ModeGroup}},
		{"async", journal.Policy{Mode: journal.ModeAsync}},
	} {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(pol.name+"/seed"+strconv.Itoa(seed), func(t *testing.T) {
				dir := t.TempDir()
				rep, err := Run(Config{
					Dir:       dir,
					Seed:      int64(seed * 7919),
					FaultRate: 0.01,
					Ops:       ops,
					Policy:    pol.policy,
				})
				if err != nil {
					t.Fatalf("soak: %v", err)
				}
				t.Logf("soak report: %s", rep)
				if rep.ServeFailures != 0 {
					t.Fatalf("incumbent stopped serving %d times; first: %s", rep.ServeFailures, rep.FirstServeErr)
				}
				if rep.Serves == 0 {
					t.Fatal("soak served nothing; harness broken")
				}
				if _, err := VerifyRecovery(dir); err != nil {
					t.Fatalf("post-soak recovery inconsistent: %v", err)
				}
				if err := journal.SweepPrefixes(dir, 6, lifecycleRecovers); err != nil {
					t.Fatalf("prefix sweep: %v", err)
				}
			})
		}
	}
}

// TestSoakGroupCommitBatches is the group-commit acceptance half, run
// fault-free so the fsync arithmetic is deterministic: fewer fsyncs than
// appended records, while stage transitions still fsync individually.
func TestSoakGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	// Big segments: rotation fsyncs (each rollover syncs the old segment's
	// tail) would otherwise drown the steady-state batching this test is
	// measuring.
	rep, err := Run(Config{
		Dir:          dir,
		Seed:         42,
		Ops:          envInt("MERLIN_SOAK_OPS", 300),
		Policy:       journal.Policy{Mode: journal.ModeGroup},
		SegmentBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak report: %s", rep)
	if rep.ServeFailures != 0 {
		t.Fatalf("serving failed without faults: %s", rep.FirstServeErr)
	}
	j := rep.Journal
	if j.Appends == 0 {
		t.Fatal("no appends; churn broken")
	}
	if j.Fsyncs >= j.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", j.Fsyncs, j.Appends)
	}
	if j.ForcedFsyncs == 0 {
		t.Fatal("no forced fsyncs: stage transitions lost their individual durability")
	}
	if rep.EndDegraded {
		t.Fatalf("degraded with no faults injected: %+v", rep.Health)
	}
	if _, err := VerifyRecovery(dir); err != nil {
		t.Fatal(err)
	}
}

// TestSoakRotationUnderChurn: the 2KiB segment bound must actually rotate
// under churn, and the sweep must hold across segment boundaries.
func TestSoakRotationUnderChurn(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{
		Dir:          dir,
		Seed:         7,
		Ops:          envInt("MERLIN_SOAK_OPS", 300),
		SegmentBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak report: %s", rep)
	if rep.Journal.Rotations == 0 {
		t.Fatalf("no segment rotations with 1KiB segments: %+v", rep.Journal)
	}
	if err := journal.SweepPrefixes(dir, 4, lifecycleRecovers); err != nil {
		t.Fatalf("multi-segment prefix sweep: %v", err)
	}
}
