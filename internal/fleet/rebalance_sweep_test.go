package fleet

import (
	"slices"
	"testing"
	"time"

	"merlin/internal/journal"
)

// replicaSweepConfig is the deterministic replicated-fleet configuration: the
// same seed and batch sizes on every run, so the recording controller and the
// per-case world rebuilds drive byte-identical worker state. Jitter draws
// only stretch durations, never change which RPC goes where, so the live
// workers see the same call sequence on every run.
func replicaSweepConfig() Config {
	return Config{
		Seed: 11, TrafficBatch: 4, VNodes: 16, Replication: 2,
		RPCTimeout: time.Second, RetryBase: time.Millisecond,
		BreakerBase: 5 * time.Millisecond, CompactEvery: 10_000,
	}
}

// buildReplicaScenario replays the recorded replicated-fleet history against
// fresh in-process workers: two rollouts land placements in the snapshot, a
// third rollout and one completed bootstrap repair land placement records in
// the journal tail, and a gated repair (onto a target seeded with an
// incumbent) is mid-canary when the controller dies. Returns the transport,
// the controller, and the two killed replicas.
func buildReplicaScenario(t *testing.T, jl *journal.Log) (*LocalTransport, *Controller, string, string) {
	t.Helper()
	workers := []string{"w1", "w2", "w3", "w4"}
	lt := NewLocalTransport()
	for _, name := range workers {
		lt.AddWorker(name, testWorkerConfig())
	}
	c := New(replicaSweepConfig(), lt)
	if jl != nil {
		c.AttachJournal(jl)
	}
	for _, name := range workers {
		if err := c.Join(name, name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	for slot, src := range map[string]string{"a": "pass:0", "b": "pass:8"} {
		if r := runRollout(t, c, slot, src); r.Phase != PhaseDone {
			t.Fatalf("scenario rollout %s = %+v", slot, r)
		}
	}
	c.Flush() // snapshot: workers + both catalogs + both placements

	// Tail material past the snapshot: a third slot's assignment, rollout and
	// installed records...
	if r := runRollout(t, c, "c", "pass:16"); r.Phase != PhaseDone {
		t.Fatalf("scenario rollout c = %+v", r)
	}

	// ...a completed bootstrap repair for slot b (new placement record)...
	victimB := c.Placements()["b"][0]
	lt.Kill(victimB)
	demoteToDown(t, c, "b", victimB)
	c.Tick()
	c.Tick()
	if reps := c.Placements()["b"]; slices.Contains(reps, victimB) {
		t.Fatalf("scenario: slot b not repaired before crash (placement %v)", reps)
	}

	// ...and a gated repair for slot a, mid-canary at the crash. The target
	// is seeded with a same-verdict incumbent so the repair must walk the
	// full deploy→canary→promote pipeline instead of bootstrapping.
	targetA := predictRepairTarget(t, c, "a")
	seedIncumbent(t, lt, targetA, "a", "pass:4")
	victimA := c.Placements()["a"][0]
	lt.Kill(victimA)
	demoteToDown(t, c, "a", victimA)
	c.Tick() // repair a: deploy staged a candidate on targetA
	c.Tick() // repair a: first canary feed
	c.mu.Lock()
	inflight := c.joins["a"] != nil
	c.mu.Unlock()
	if !inflight {
		t.Fatal("scenario: slot a repair not in flight at the crash point")
	}
	return lt, c, victimA, victimB
}

// TestRebalanceJournalTruncationSweep is the crash sweep over placement
// records: record a replicated fleet that dies with one repair completed and
// another mid-canary, then for every byte-prefix of the controller journal,
// recover a fresh controller against an identical world and require it to
// converge — every slot fully re-replicated onto live workers, every replica
// actually serving the blessed version, no copy left on a worker the
// placement does not name.
func TestRebalanceJournalTruncationSweep(t *testing.T) {
	recDir := t.TempDir()
	jl, err := journal.OpenWith(recDir, journal.Options{SegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	buildReplicaScenario(t, jl)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	sweepJournalPrefixes(t, recDir, verifyRebalanceRecovery)
}

// verifyRebalanceRecovery reconstructs the crash-point world, recovers a
// controller from the journal prefix in dir, drives Ticks until the fleet
// settles, and audits full replication.
func verifyRebalanceRecovery(t *testing.T, dir string) {
	t.Helper()
	lt, _, victimA, victimB := buildReplicaScenario(t, nil)

	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("open prefix journal: %v", err)
	}
	defer jl.Close()
	c := New(replicaSweepConfig(), lt)
	c.AttachJournal(jl)
	rs, err := c.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Workers != 4 {
		t.Fatalf("recovered %d workers, want 4 (stats %+v)", rs.Workers, rs)
	}
	if rs.Placements < 2 {
		t.Fatalf("recovered %d placements, want the snapshot's 2 at least", rs.Placements)
	}

	// Drive to quiescence: probes re-admit the live workers, any recovered
	// rollout finishes, the reconciler re-repairs whatever placement version
	// the prefix preserved. Breakers and repair steps are wall-clock paced,
	// so poll with a deadline rather than a fixed step count.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.Tick()
		for i := 0; i < 50; i++ {
			if done, err := c.Step(); err != nil || done {
				break
			}
		}
		if replicationConverged(c, victimA, victimB) || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Audit 1: every recovered slot is fully replicated on live workers.
	pls := c.Placements()
	for slot, reps := range pls {
		if len(reps) != 2 {
			t.Fatalf("slot %s has %d replicas after recovery: %v", slot, len(reps), reps)
		}
		for _, w := range reps {
			if w == victimA || w == victimB {
				t.Fatalf("slot %s still placed on dead worker %s: %v", slot, w, reps)
			}
			if _, err := lt.Manager(w).StatusOf(slot); err != nil {
				t.Fatalf("replica %s of %s not serving: %v", w, slot, err)
			}
		}
	}

	// Audit 2: replicas agree on the program. Dead workers keep whatever
	// they had; live non-replicas may hold an undrained stale copy until
	// they next reconcile, but every placed copy must be the blessed one.
	for slot, reps := range pls {
		insns := map[uint64]bool{}
		for _, w := range reps {
			insns[liveInsns(t, lt, w, slot)] = true
		}
		if len(insns) != 1 {
			t.Fatalf("slot %s replicas diverge after recovery: %v on %v", slot, insns, reps)
		}
	}

	// Audit 3: traffic is whole — no slot drops packets.
	for slot := range pls {
		if rep := c.Traffic(slot, 32); rep.Dropped != 0 {
			t.Fatalf("slot %s dropped %d packets after recovery", slot, rep.Dropped)
		}
	}
}

// replicationConverged reports whether every placed slot has R live replicas
// and no repair is still in flight.
func replicationConverged(c *Controller, dead ...string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.joins) > 0 {
		return false
	}
	if c.rollout != nil && !c.rollout.terminal() {
		return false
	}
	for _, slot := range sortedKeys(c.placements) {
		pl := c.placements[slot]
		if len(pl.Replicas) != c.repairWantLocked() {
			return false
		}
		if c.liveReplicasLocked(pl) != c.repairWantLocked() {
			return false
		}
		for _, rn := range pl.Replicas {
			if slices.Contains(dead, rn) {
				return false
			}
			if c.workers[rn].health != Healthy {
				return false
			}
		}
	}
	return true
}

// TestRebalanceRecoverResumesRepair is the direct (no-truncation) recovery
// path: the controller dies mid-repair, a successor recovers from the full
// journal and finishes re-replication — including the gated repair, which
// must still pay the canary gate on the incumbent-bearing target.
func TestRebalanceRecoverResumesRepair(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.OpenWith(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lt, _, victimA, victimB := buildReplicaScenario(t, jl)
	if err := jl.Close(); err != nil { // the controller dies here
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	c := New(replicaSweepConfig(), lt)
	c.AttachJournal(jl2)
	rs, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Joins are deliberately not journaled: the successor recomputes
	// under-replication from the recovered placements and health.
	c.mu.Lock()
	recoveredJoins := len(c.joins)
	c.mu.Unlock()
	if recoveredJoins != 0 {
		t.Fatalf("recovery resurrected %d joins", recoveredJoins)
	}
	if rs.Placements != 3 {
		t.Fatalf("recovered %d placements, want 3", rs.Placements)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !replicationConverged(c, victimA, victimB) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: placements %v workers %+v",
				c.Placements(), c.FleetStatus().Workers)
		}
		c.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	// The resumed gated repair went through the gate: the incumbent-bearing
	// target of slot a is at gen >= 2 (staged over its seeded incumbent),
	// and a's placement no longer names the dead replica.
	repsA := c.Placements()["a"]
	if slices.Contains(repsA, victimA) {
		t.Fatalf("slot a still placed on dead %s: %v", victimA, repsA)
	}
	for _, w := range repsA {
		st, err := lt.Manager(w).StatusOf("a")
		if err != nil {
			t.Fatalf("replica %s of a: %v", w, err)
		}
		if st.LiveGeneration == 0 {
			t.Fatalf("replica %s of a has no live program", w)
		}
	}
}
