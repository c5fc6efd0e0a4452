package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"merlin/internal/journal"
)

// sweepConfig is the deterministic controller configuration shared by the
// recording run and every replayed world: same seed, same batch sizes, so
// the workers end up byte-identical at the crash point every time. The slot
// is placed on all three workers.
func sweepConfig() Config {
	return Config{
		Seed: 7, TrafficBatch: 4, VNodes: 16, Replication: 3,
		RPCTimeout: time.Second, RetryBase: time.Millisecond,
		BreakerBase: 5 * time.Millisecond, CompactEvery: 10_000,
	}
}

// buildScenario replays the recorded fleet history against fresh in-process
// workers: two completed rollouts (pass:0, then pass:8), a snapshot
// compaction, then a third rollout of pass:16 stepped exactly crashSteps
// times — mid-rollout, with w1 promoted and w2 carrying a staged candidate.
// jl, when non-nil, records the controller's journal; the world (the
// workers) is identical either way.
func buildScenario(t *testing.T, jl *journal.Log, crashSteps int) (*LocalTransport, *Controller) {
	t.Helper()
	lt := NewLocalTransport()
	for _, name := range []string{"w1", "w2", "w3"} {
		lt.AddWorker(name, testWorkerConfig())
	}
	c := New(sweepConfig(), lt)
	if jl != nil {
		c.AttachJournal(jl)
	}
	for _, name := range []string{"w1", "w2", "w3"} {
		if err := c.Join(name, name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	for _, src := range []string{"pass:0", "pass:8"} {
		if r := runRollout(t, c, "s", src); r.Phase != PhaseDone {
			t.Fatalf("scenario rollout %s = %+v", src, r)
		}
	}
	c.Flush() // snapshot: workers + catalog gen2 + installed gen2
	if err := c.Deploy("s", "pass:16"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashSteps; i++ {
		if done, err := c.Step(); err != nil || done {
			t.Fatalf("scenario rollout finished early at step %d (done=%v err=%v)", i, done, err)
		}
	}
	return lt, c
}

// TestControllerJournalTruncationSweep is the crash sweep over the
// controller's own journal: record a fleet history that dies mid-rollout,
// then for every byte-prefix of the journal's segment stream, recover a
// fresh controller against an identical world and require it to converge —
// the rollout resumes or rolls back cleanly, and the fleet is never left
// half-promoted (every worker serving the same version, controller state
// matching the observed world).
func TestControllerJournalTruncationSweep(t *testing.T) {
	const crashSteps = 4

	// Recording run: small segments so the sweep crosses a rotation.
	recDir := t.TempDir()
	jl, err := journal.OpenWith(recDir, journal.Options{SegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	ltRec, _ := buildScenario(t, jl, crashSteps)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// The two fleet versions in play, measured on the recorded world: w3
	// still serves the blessed pass:8, w1 was promoted to pass:16.
	oldInsns := liveInsns(t, ltRec, "w3", "s")
	newInsns := liveInsns(t, ltRec, "w1", "s")
	if oldInsns == newInsns {
		t.Fatalf("scenario versions indistinguishable: %d insns", oldInsns)
	}

	sweepJournalPrefixes(t, recDir, verifyFleetRecovery)
}

// sweepJournalPrefixes runs journal.SweepPrefixes over the journal recorded
// in recDir for both controller sweeps: five evenly spaced cuts of each
// segment (case-NN-<seg>-cut<N>) plus every record boundary and the byte
// either side of it (boundary-<seg>-cut<N>), each prefix one subtest. The
// recording must span a snapshot and a segment rotation.
func sweepJournalPrefixes(t *testing.T, recDir string, verify func(t *testing.T, dir string)) {
	t.Helper()
	segs, err := journal.SegmentFiles(recDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("scenario produced %d segments, want a rotation to sweep across", len(segs))
	}
	if _, err := os.Stat(filepath.Join(recDir, "snapshot.db")); err != nil {
		t.Fatal("scenario produced no snapshot")
	}
	const samples = 5
	caseNum := 0
	err = journal.SweepPrefixes(recDir, samples, func(dir string, p journal.Prefix) error {
		name := fmt.Sprintf("boundary-%s-cut%d", p.Seg, p.Cut)
		if p.Sample >= 0 {
			caseNum++
			name = fmt.Sprintf("case-%02d-%s-cut%d", caseNum, p.Seg, p.Cut)
		}
		t.Run(name, func(t *testing.T) { verify(t, dir) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// verifyFleetRecovery reconstructs the crash-point world, recovers a
// controller from the journal prefix in dir, drives it to quiescence, and
// audits the never-half-promoted invariant.
func verifyFleetRecovery(t *testing.T, dir string) {
	t.Helper()
	// The world at the crash: identical workers, driven by a journal-less
	// controller that is then discarded (it "died").
	lt, _ := buildScenario(t, nil, 4)

	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("open prefix journal: %v", err)
	}
	defer jl.Close()
	c := New(sweepConfig(), lt)
	c.AttachJournal(jl)
	rs, err := c.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Workers != 3 {
		t.Fatalf("recovered %d workers, want 3 (stats %+v)", rs.Workers, rs)
	}

	// Re-admit the workers, then drive whatever rollout was recovered to a
	// terminal phase, then reconcile once more for any stragglers.
	c.Tick()
	for i := 0; i < 100; i++ {
		done, err := c.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			break
		}
	}
	c.Tick()

	if r := c.RolloutStatus(); !r.terminal() {
		t.Fatalf("rollout did not reach a terminal phase: %+v", r)
	}

	// Audit 1: uniform fleet. Every worker serves verdict 2 (liveInsns
	// fails otherwise) with the same program size — all old or all new,
	// never a mix.
	insns := map[uint64][]string{}
	for _, w := range []string{"w1", "w2", "w3"} {
		insns[liveInsns(t, lt, w, "s")] = append(insns[liveInsns(t, lt, w, "s")], w)
	}
	if len(insns) != 1 {
		t.Fatalf("fleet half-promoted after recovery: %v", insns)
	}

	// Audit 2: the controller's recovered+reconciled state matches the
	// observed world — catalog generation agrees with installed records,
	// and installed records agree with each worker's actual live program.
	c.mu.Lock()
	defer c.mu.Unlock()
	cat := c.catalog["s"]
	if cat == nil {
		t.Fatal("catalog lost slot s")
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		inst, ok := c.installed[w]["s"]
		if !ok {
			t.Fatalf("no installed record for %s", w)
		}
		if inst.FleetGen != cat.Gen {
			t.Fatalf("%s installed fleet gen %d, catalog gen %d", w, inst.FleetGen, cat.Gen)
		}
		st, err := lt.Manager(w).StatusOf("s")
		if err != nil {
			t.Fatalf("status of %s: %v", w, err)
		}
		if st.LiveGeneration != inst.LocalGen {
			t.Fatalf("%s live gen %d, controller believes %d", w, st.LiveGeneration, inst.LocalGen)
		}
	}
}

// TestControllerRecoverResumesRollout is the direct (no-truncation) recovery
// path: kill the controller mid-rollout, recover from its full journal, and
// the rollout finishes on the workers the dead controller left behind.
func TestControllerRecoverResumesRollout(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.OpenWith(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lt, c1 := buildScenario(t, jl, 4)
	mid := c1.RolloutStatus()
	if mid.terminal() || len(mid.Promoted) == 0 {
		t.Fatalf("scenario not mid-rollout: %+v", mid)
	}
	if err := jl.Close(); err != nil { // the controller "dies" here
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	c2 := New(sweepConfig(), lt)
	c2.AttachJournal(jl2)
	rs, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.RolloutPhase == "" || rs.RolloutPhase == PhaseDone {
		t.Fatalf("recovered rollout phase = %q, want in-flight", rs.RolloutPhase)
	}
	c2.Tick()
	r := driveRollout(t, c2)
	if r.Phase != PhaseDone {
		t.Fatalf("resumed rollout = %+v", r)
	}
	want := liveInsns(t, lt, "w1", "s")
	for _, w := range []string{"w2", "w3"} {
		if got := liveInsns(t, lt, w, "s"); got != want {
			t.Fatalf("resumed fleet not uniform: %s=%d w1=%d", w, got, want)
		}
	}
	if st := c2.FleetStatus(); st.Catalog[0].Src != "pass:16" || st.Catalog[0].Gen != 3 {
		t.Fatalf("catalog after resume = %+v", st.Catalog)
	}
}
