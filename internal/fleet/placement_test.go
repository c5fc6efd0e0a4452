package fleet

import (
	"context"
	"slices"
	"strings"
	"testing"

	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
)

// placementFleet spins a controller with replication enabled over n workers.
func placementFleet(t *testing.T, n int, cfg Config) (*Controller, *LocalTransport) {
	t.Helper()
	if cfg.Replication == 0 {
		cfg.Replication = 2
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	return testFleet(t, n, cfg)
}

// demoteToDown drives traffic until the controller marks the (killed) worker
// down. Chunks owned by the dead replica fail over, feeding the health
// machine; the survivors absorb every packet, so nothing is dropped.
func demoteToDown(t *testing.T, c *Controller, slot, name string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if rep := c.Traffic(slot, 32); rep.Dropped != 0 {
			t.Fatalf("dropped %d packets while demoting %s", rep.Dropped, name)
		}
		if workerHealth(c.FleetStatus(), name) == Down {
			return
		}
	}
	t.Fatalf("%s never reached down: %+v", name, c.FleetStatus().Workers)
}

// seedIncumbent plants a live program on a worker outside the control plane,
// so a later repair onto it must stage against a real incumbent and pay the
// canary gate.
func seedIncumbent(t *testing.T, lt *LocalTransport, worker, slot, desc string) {
	t.Helper()
	src, err := ResolveTestSource(desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := lt.Manager(worker).DeployWith(slot, src, lifecycle.DeployOptions{SourceDesc: desc}); err != nil {
		t.Fatalf("seed incumbent %s on %s: %v", desc, worker, err)
	}
}

// predictRepairTarget returns the worker the reconciler would admit to slot
// right now — the first non-replica on the ring walk that is not down.
func predictRepairTarget(t *testing.T, c *Controller, slot string) string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	pl := c.placements[slot]
	if pl == nil {
		t.Fatalf("slot %s has no placement", slot)
	}
	target := c.joinTargetLocked(slot, pl)
	if target == "" {
		t.Fatalf("no repair target for %s", slot)
	}
	return target
}

func TestPlacementScopesDeployToReplicas(t *testing.T) {
	c, lt := placementFleet(t, 4, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	reps := c.Placements()["s"]
	if len(reps) != 2 {
		t.Fatalf("placement = %v, want 2 replicas", reps)
	}
	for _, w := range []string{"w1", "w2", "w3", "w4"} {
		_, err := lt.Manager(w).StatusOf("s")
		if slices.Contains(reps, w) {
			if err != nil {
				t.Fatalf("replica %s does not hold the slot: %v", w, err)
			}
		} else if err == nil {
			t.Fatalf("non-replica %s holds the slot (placement %v)", w, reps)
		}
	}
	st := c.FleetStatus()
	if len(st.Placements) != 1 || st.Placements[0].Live != 2 || st.Placements[0].Ver != 1 {
		t.Fatalf("placement view = %+v", st.Placements)
	}
	var found bool
	for _, l := range st.Lines() {
		if strings.HasPrefix(l, "placement slot=s ver=1 live=2/2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no placement line in %v", st.Lines())
	}
}

func TestTrafficFailsOverToSurvivingReplica(t *testing.T) {
	c, lt := placementFleet(t, 4, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	reps := c.Placements()["s"]
	victim, survivor := reps[0], reps[1]
	lt.Kill(victim)

	// The dead replica is still in the routing pool until the health machine
	// demotes it; its chunks fail over to the surviving replica, not to a
	// non-replica, and nothing is dropped at any point.
	rep := c.Traffic("s", 128)
	if rep.Dropped != 0 || rep.Sent != 128 {
		t.Fatalf("fan-out with one dead replica = %+v", rep)
	}
	if c.met.failovers.Value() == 0 {
		t.Fatal("no failover counted though a replica was dead")
	}
	demoteToDown(t, c, "s", victim)

	// Down: its ring points are withdrawn, the survivor owns everything.
	if rep := c.Traffic("s", 64); rep.Dropped != 0 || rep.Rerouted != 0 {
		t.Fatalf("post-down fan-out = %+v", rep)
	}
	if st, err := lt.Manager(survivor).StatusOf("s"); err != nil || st.Served == 0 {
		t.Fatalf("survivor did not serve: %+v err=%v", st, err)
	}
}

func TestRepairBootstrapsOntoFreshWorkerAndDrainsRejoiner(t *testing.T) {
	c, lt := placementFleet(t, 4, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	reps := c.Placements()["s"]
	victim := reps[0]
	lt.Kill(victim)
	demoteToDown(t, c, "s", victim)

	// The fresh target has no incumbent, so the blessed version bootstraps
	// live in a single repair step.
	for i := 0; i < 10 && slices.Contains(c.Placements()["s"], victim); i++ {
		c.Tick()
	}
	after := c.Placements()["s"]
	if slices.Contains(after, victim) || len(after) != 2 {
		t.Fatalf("placement not repaired: %v (victim %s)", after, victim)
	}
	if c.met.repairsDone["bootstrap"].Value() != 1 {
		t.Fatalf("bootstrap repairs = %d, want 1", c.met.repairsDone["bootstrap"].Value())
	}
	for _, w := range after {
		if st, err := lt.Manager(w).StatusOf("s"); err != nil || st.LiveGeneration == 0 {
			t.Fatalf("replica %s not live after repair: %+v err=%v", w, st, err)
		}
	}
	if rep := c.Traffic("s", 64); rep.Dropped != 0 {
		t.Fatalf("dropped after repair: %+v", rep)
	}

	// The victim comes back with its stale copy intact; it is no longer a
	// replica, so reconcile drains the copy off it.
	lt.Restart(victim, false)
	if err := c.Join(victim, victim); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if _, err := lt.Manager(victim).StatusOf("s"); err == nil {
		t.Fatalf("stale copy on %s not drained", victim)
	}
	if c.met.drains.Value() == 0 {
		t.Fatal("drain not counted")
	}
	if got := c.Placements()["s"]; len(got) != 2 || slices.Contains(got, victim) {
		t.Fatalf("placement churned on rejoin: %v", got)
	}
}

// A Healthy worker holding a copy of a catalog slot it is not placed for
// loses it on the next Tick: the loop observes every worker, not only the
// ones being re-admitted.
func TestHealthyNonReplicaCopyDrainedInOneTick(t *testing.T) {
	c, lt := placementFleet(t, 3, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	reps := c.Placements()["s"]
	spare := ""
	for _, w := range []string{"w1", "w2", "w3"} {
		if !slices.Contains(reps, w) {
			spare = w
		}
	}
	seedIncumbent(t, lt, spare, "s", "drop:0")
	if h := workerHealth(c.FleetStatus(), spare); h != Healthy {
		t.Fatalf("%s is %s, want healthy", spare, h)
	}
	c.Tick()
	if st, err := lt.Manager(spare).StatusOf("s"); err == nil {
		t.Fatalf("copy on non-replica %s survived a Tick: %+v", spare, st)
	}
	if c.met.drains.Value() != 1 {
		t.Fatalf("drains = %d, want 1", c.met.drains.Value())
	}
	if got := c.Placements()["s"]; !slices.Equal(got, reps) {
		t.Fatalf("placement churned: %v → %v", reps, got)
	}
}

func TestRepairPaysCanaryGateOnIncumbentTarget(t *testing.T) {
	c, lt := placementFleet(t, 3, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	target := predictRepairTarget(t, c, "s")
	// Same verdict family as the blessed pass:0, different padding: the gate
	// clears, but only after real shadow/canary mirroring.
	seedIncumbent(t, lt, target, "s", "pass:4")

	victim := c.Placements()["s"][0]
	lt.Kill(victim)
	demoteToDown(t, c, "s", victim)
	for i := 0; i < 20 && slices.Contains(c.Placements()["s"], victim); i++ {
		c.Tick()
	}
	after := c.Placements()["s"]
	if slices.Contains(after, victim) || !slices.Contains(after, target) {
		t.Fatalf("placement after gated repair = %v (victim %s target %s)", after, victim, target)
	}
	if c.met.repairsDone["gated"].Value() != 1 || c.met.repairsDone["bootstrap"].Value() != 0 {
		t.Fatalf("gated=%d bootstrap=%d, want 1/0",
			c.met.repairsDone["gated"].Value(), c.met.repairsDone["bootstrap"].Value())
	}
	// gen2 proves the repair staged over the seeded incumbent and promoted
	// through the gate rather than bootstrapping a fresh gen1.
	st, err := lt.Manager(target).StatusOf("s")
	if err != nil || st.LiveGeneration != 2 {
		t.Fatalf("target after gated repair = %+v err=%v", st, err)
	}
}

// A join refused by its target's gate is never forced: the divergent copy is
// drained (the target is not a replica, so it holds no claim to the slot)
// and the target joins again with an empty slot, which bootstraps. No
// breaker is needed for the refusal not to loop.
func TestRepairGateRefusalDrainsThenBootstraps(t *testing.T) {
	c, lt := placementFleet(t, 3, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	target := predictRepairTarget(t, c, "s")
	// A genuinely divergent incumbent: the join stages, mirrors, diverges,
	// and is rejected by the target's own gate.
	seedIncumbent(t, lt, target, "s", "drop:0")

	victim := c.Placements()["s"][0]
	lt.Kill(victim)
	demoteToDown(t, c, "s", victim)
	for i := 0; i < 30 && slices.Contains(c.Placements()["s"], victim); i++ {
		c.Tick()
		if rep := c.Traffic("s", 16); rep.Dropped != 0 {
			t.Fatalf("dropped while under-replicated: %+v", rep)
		}
	}
	if reps := c.Placements()["s"]; slices.Contains(reps, victim) || !slices.Contains(reps, target) {
		t.Fatalf("placement = %v (victim %s target %s)", reps, victim, target)
	}
	if c.met.repairsFailed.Value() != 1 || c.met.repairBreakerOpens.Value() != 1 {
		t.Fatalf("refused joins = %d, drained before re-joining = %d, want 1 and 1",
			c.met.repairsFailed.Value(), c.met.repairBreakerOpens.Value())
	}
	if c.met.repairsDone["gated"].Value() != 0 || c.met.repairsDone["bootstrap"].Value() != 1 {
		t.Fatalf("gated=%d bootstrap=%d, want 0/1", c.met.repairsDone["gated"].Value(), c.met.repairsDone["bootstrap"].Value())
	}
	survivor := c.Placements()["s"][0]
	if got, want := liveInsns(t, lt, target, "s"), liveInsns(t, lt, survivor, "s"); got != want {
		t.Fatalf("target serves %d insns, survivor %d", got, want)
	}
}

func TestLeaveReassignsPlacement(t *testing.T) {
	c, lt := placementFleet(t, 4, Config{})
	if err := c.Deploy("s", "pass:0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("w1"); err == nil {
		t.Fatal("Leave allowed during an in-flight rollout")
	}
	if r := driveRollout(t, c); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	if err := c.Leave("nope"); err == nil {
		t.Fatal("Leave of an unknown worker succeeded")
	}

	departing := c.Placements()["s"][0]
	if err := c.Leave(departing); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if slices.Contains(c.Workers(), departing) {
		t.Fatalf("%s still a member after Leave", departing)
	}
	if got := c.Placements()["s"]; len(got) != 1 || slices.Contains(got, departing) {
		t.Fatalf("placement after leave = %v", got)
	}
	for i := 0; i < 10 && len(c.Placements()["s"]) < 2; i++ {
		c.Tick()
	}
	after := c.Placements()["s"]
	if len(after) != 2 || slices.Contains(after, departing) {
		t.Fatalf("placement not re-replicated after leave: %v", after)
	}
	for _, w := range after {
		if _, err := lt.Manager(w).StatusOf("s"); err != nil {
			t.Fatalf("replica %s missing the slot: %v", w, err)
		}
	}
}

func TestAuthTokenGatesControlRPCs(t *testing.T) {
	lt := NewLocalTransport()
	for _, n := range []string{"w1", "w2"} {
		lt.AddWorker(n, testWorkerConfig())
		lt.SetToken(n, "hunter2")
	}
	c := New(Config{Seed: 42, TrafficBatch: 4, AuthToken: "hunter2",
		Replication: 2, Metrics: metrics.New()}, lt)
	for _, n := range []string{"w1", "w2"} {
		if err := c.Join(n, n); err != nil {
			t.Fatalf("join %s: %v", n, err)
		}
	}
	// The token-bearing controller drives a full rollout unimpeded.
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("authed rollout = %+v", r)
	}

	// Raw probes without (or with the wrong) token get the uniform refusal
	// and are counted on the worker.
	for _, line := range []string{"status", "auth wrong status", "auth hunter2", "auth hunter2 "} {
		lines, err := lt.RPC(context.Background(), "w1", line)
		if err != nil || len(lines) != 1 || lines[0] != "err unauthorized" {
			t.Fatalf("probe %q = %v err=%v, want uniform refusal", line, lines, err)
		}
	}
	if fails := lt.AuthFailures("w1"); fails != 4 {
		t.Fatalf("auth failures = %d, want 4", fails)
	}

	// A tokenless listener tolerates an auth header (rolling upgrade) and
	// bare lines alike.
	lt.SetToken("w2", "")
	for _, line := range []string{"status", "auth whatever status"} {
		lines, err := lt.RPC(context.Background(), "w2", line)
		if err != nil || len(lines) == 0 || lines[len(lines)-1] != "ok status" {
			t.Fatalf("tokenless probe %q = %v err=%v", line, lines, err)
		}
	}
}

func TestAuthLineCheckAuthMatrix(t *testing.T) {
	if got := AuthLine("", "status"); got != "status" {
		t.Fatalf("AuthLine no token = %q", got)
	}
	if got := AuthLine("t0k", "status"); got != "auth t0k status" {
		t.Fatalf("AuthLine = %q", got)
	}
	cases := []struct {
		token, line string
		wantRest    string
		wantOK      bool
	}{
		{"", "status", "status", true},
		{"", "auth anything status", "status", true},
		{"", "auth onlytoken", "", false},
		{"tok", "auth tok deploy s pass:0", "deploy s pass:0", true},
		{"tok", "auth bad deploy s pass:0", "", false},
		{"tok", "deploy s pass:0", "", false},
		{"tok", "auth tok", "", false},
		{"tok", "", "", false},
	}
	for _, tc := range cases {
		rest, ok := CheckAuth(tc.token, tc.line)
		if rest != tc.wantRest || ok != tc.wantOK {
			t.Fatalf("CheckAuth(%q, %q) = (%q, %v), want (%q, %v)",
				tc.token, tc.line, rest, ok, tc.wantRest, tc.wantOK)
		}
	}
}
