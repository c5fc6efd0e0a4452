package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"merlin/internal/chaos"
	"merlin/internal/ebpf"
	"merlin/internal/journal"
	"merlin/internal/superopt"
)

// lifecycleRecovers is SweepPrefixes' check for a lifecycle state dir.
func lifecycleRecovers(dir string) error {
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
				if err := SweepPrefixes(dir, 6, lifecycleRecovers); err != nil {
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
	if err := SweepPrefixes(dir, 4, lifecycleRecovers); err != nil {
		t.Fatalf("multi-segment prefix sweep: %v", err)
	}
}

// TestVerdictBatchTornAtEveryByte crashes a superopt verdict batch (one
// Cache.PutAll, one journal write) at every byte offset of what reached the
// disk: the cache must reopen from each prefix holding exactly a whole-record
// prefix of the batch, in order, with no verdict altered, and accept new
// verdicts. The batch goes through a chaos.FS whose first write tears, so the
// surviving journal also holds the rollback of a torn batch ahead of it.
func TestVerdictBatchTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(chaos.Step{Op: chaos.OpWrite, Name: "journal.log", Fault: chaos.Torn}))
	c, err := superopt.OpenCacheWith(dir, journal.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	verdict := func(i int) superopt.Verdict {
		if i%3 == 0 {
			return superopt.Verdict{}
		}
		return superopt.Verdict{Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, int32(i))}}
	}
	batch := func(prefix string, n int) ([]string, []superopt.Verdict) {
		keys, vs := make([]string, n), make([]superopt.Verdict, n)
		for i := range keys {
			keys[i], vs[i] = fmt.Sprintf("%s-%02d", prefix, i), verdict(i)
		}
		return keys, vs
	}
	c.PutAll(batch("torn", 4)) // half lands, is rolled back; memory keeps it, disk must not
	keys, vs := batch("window", 12)
	c.PutAll(keys, vs)
	if st := inj.Stats(); st.TornWrites != 1 {
		t.Fatalf("the torn batch was not injected: %+v", st)
	}
	info, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	last := -1
	err = SweepPrefixes(dir, int(info.Size())+1, func(caseDir string) error {
		rc, err := superopt.OpenCache(caseDir)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		defer rc.Close()
		n := rc.Len()
		if n < last {
			return fmt.Errorf("a longer prefix recovered fewer verdicts: %d after %d", n, last)
		}
		last = n
		for i, k := range keys {
			got, ok := rc.Get(k)
			if ok != (i < n) {
				return fmt.Errorf("%d verdicts recovered but %s present=%v: not a whole-record prefix", n, k, ok)
			}
			if ok && (got.Improved != vs[i].Improved || !slices.Equal(got.Repl, vs[i].Repl)) {
				return fmt.Errorf("%s recovered altered: %+v", k, got)
			}
		}
		rc.PutAll([]string{"after-the-crash"}, []superopt.Verdict{{Improved: true}})
		if _, ok := rc.Get("after-the-crash"); !ok {
			return fmt.Errorf("recovered cache refused a new verdict")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(keys) {
		t.Fatalf("the whole journal recovered %d of %d verdicts", last, len(keys))
	}
}
