package fleet

import (
	"slices"
	"strings"
	"testing"

	"merlin/internal/lifecycle"
)

func TestRollingDeployHappyPath(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	r := runRollout(t, c, "s", "pass:0")
	if r.Phase != PhaseDone || len(r.Promoted) != 3 {
		t.Fatalf("bootstrap rollout = %+v", r)
	}

	r = runRollout(t, c, "s", "pass:8")
	if r.Phase != PhaseDone || len(r.Promoted) != 3 {
		t.Fatalf("upgrade rollout = %+v", r)
	}
	st := c.FleetStatus()
	if len(st.Catalog) != 1 || st.Catalog[0].Gen != 2 || st.Catalog[0].Src != "pass:8" {
		t.Fatalf("catalog = %+v", st.Catalog)
	}
	// Every worker serves the padded program: 8 extra insns vs pass:0.
	base := liveInsns(t, lt, "w1", "s")
	for _, w := range []string{"w2", "w3"} {
		if got := liveInsns(t, lt, w, "s"); got != base {
			t.Fatalf("fleet not uniform: %s serves %d insns, w1 serves %d", w, got, base)
		}
	}
	if base < 12 {
		t.Fatalf("padded program not live: %d insns", base)
	}
}

// One node's divergence gate halts the whole fleet and unwinds the workers
// already promoted — the core rollback guarantee.
func TestDivergenceOnOneWorkerRollsBackFleet(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}
	if r := runRollout(t, c, "s", "pass:8"); r.Phase != PhaseDone {
		t.Fatalf("upgrade = %+v", r)
	}
	before := liveInsns(t, lt, "w1", "s")

	// w3 resolves the next descriptor to a program that returns a different
	// verdict: its mirror gate will reject what w1 and w2 accepted.
	w3 := lt.get("w3")
	w3.mu.Lock()
	w3.Resolve = func(desc string) (lifecycle.Source, error) {
		if desc == "pass:16" {
			return ResolveTestSource("drop:16")
		}
		return ResolveTestSource(desc)
	}
	w3.mu.Unlock()

	r := runRollout(t, c, "s", "pass:16")
	if r.Phase != PhaseFailed {
		t.Fatalf("rollout phase = %s, want failed (%+v)", r.Phase, r)
	}
	if len(r.Promoted) != 2 {
		t.Fatalf("promoted = %v, want w1 and w2 before the halt", r.Promoted)
	}
	if !strings.Contains(r.Reason, "rejected") {
		t.Fatalf("reason = %q", r.Reason)
	}
	// The catalog never adopted the bad version...
	st := c.FleetStatus()
	if st.Catalog[0].Gen != 2 || st.Catalog[0].Src != "pass:8" {
		t.Fatalf("catalog moved despite failed rollout: %+v", st.Catalog)
	}
	// ...and every worker is back on it, serving the old verdict and size.
	for _, w := range []string{"w1", "w2", "w3"} {
		if got := liveInsns(t, lt, w, "s"); got != before {
			t.Fatalf("worker %s serves %d insns after rollback, want %d", w, got, before)
		}
	}
}

// A worker dying mid-rollout halts the rollout; the promoted prefix is
// unwound; the dead worker is restored by reconcile when it rejoins.
func TestWorkerDeathMidRolloutHaltsAndRollsBack(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}
	if r := runRollout(t, c, "s", "pass:8"); r.Phase != PhaseDone {
		t.Fatalf("upgrade = %+v", r)
	}
	before := liveInsns(t, lt, "w1", "s")

	if err := c.Deploy("s", "pass:16"); err != nil {
		t.Fatal(err)
	}
	// Drive until w1 is promoted, then kill w2 while the rollout is parked
	// on it.
	for i := 0; i < 100; i++ {
		r := c.RolloutStatus()
		if len(r.Promoted) == 1 && r.Idx == 1 {
			break
		}
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	lt.Kill("w2")
	r := driveRollout(t, c)
	if r.Phase != PhaseFailed {
		t.Fatalf("rollout = %+v, want failed", r)
	}
	if !strings.Contains(r.Reason, "down") {
		t.Fatalf("reason = %q", r.Reason)
	}
	// w1 was unwound; w3 never saw the new version.
	for _, w := range []string{"w1", "w3"} {
		if got := liveInsns(t, lt, w, "s"); got != before {
			t.Fatalf("worker %s serves %d insns, want %d", w, got, before)
		}
	}

	// The dead worker comes back blank; reconcile restores the blessed
	// version, not the aborted one.
	lt.Restart("w2", true)
	if err := c.Join("w2", "w2"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := liveInsns(t, lt, "w2", "s"); got != before {
		t.Fatalf("rejoined worker serves %d insns, want %d", got, before)
	}
	if st := c.FleetStatus(); st.Degraded {
		t.Fatalf("fleet degraded after rejoin: %+v", st)
	}
}

// A bootstrap rollout that halts withdraws its never-blessed program from
// the workers it reached, and a per-slot rollback never takes a worker out
// of another slot's traffic pool.
func TestHaltedBootstrapDrainsAndKeepsWorkerRouted(t *testing.T) {
	c, lt := testFleet(t, 3, Config{})
	if r := runRollout(t, c, "b", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap b = %+v", r)
	}
	served := func() uint64 {
		st, err := lt.Manager("w1").StatusOf("b")
		if err != nil {
			t.Fatal(err)
		}
		return st.Served
	}
	before := served()
	check := func(when string) {
		t.Helper()
		if rep := c.Traffic("b", 64); rep.Dropped != 0 {
			t.Fatalf("%s: b dropped %+v", when, rep)
		}
		if h := workerHealth(c.FleetStatus(), "w1"); h != Healthy {
			t.Fatalf("%s: w1 is %s, out of b's pool", when, h)
		}
	}

	if err := c.Deploy("a", "pass:4"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && len(c.RolloutStatus().Promoted) == 0; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if r := c.RolloutStatus(); !slices.Equal(r.Promoted, []string{"w1"}) || r.Idx != 1 {
		t.Fatalf("rollout not parked on w2 after promoting w1: %+v", r)
	}
	lt.Kill("w2")
	for i := 0; i < 50; i++ {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		check("step")
		if done {
			break
		}
	}
	if r := c.RolloutStatus(); r.Phase != PhaseFailed {
		t.Fatalf("rollout = %+v, want failed", r)
	}
	for i := 0; i < 5; i++ {
		c.Tick()
		check("tick")
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if st, err := lt.Manager(w).StatusOf("a"); err == nil {
			t.Fatalf("%s still holds the withdrawn a: %+v", w, st)
		}
	}
	if tr := c.Traffic("a", 16); tr.Sent != 0 {
		t.Fatalf("withdrawn a still served: %+v", tr)
	}
	if served() <= before {
		t.Fatal("w1 served none of b's traffic")
	}
}

// Deploy must refuse to start over a rollout already in flight, and with no
// routable workers.
func TestDeployPreconditions(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	if err := c.Deploy("s", "pass:0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy("s", "pass:8"); err == nil {
		t.Fatal("second deploy started over an in-flight rollout")
	}
	driveRollout(t, c)

	lt.Kill("w1")
	lt.Kill("w2")
	for i := 0; i < 8; i++ {
		c.rpc("w1", "tick", false)
		c.rpc("w2", "tick", false)
	}
	if err := c.Deploy("s", "pass:8"); err == nil {
		t.Fatal("deploy started with every worker down")
	}
}
