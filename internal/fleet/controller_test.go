package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// testWorkerConfig is the lifecycle config for in-process test workers:
// short gates, and a wide-open cycle-slack gate so the deliberately padded
// pass:N test programs are not rejected as cycle regressions (the divergence
// gate, which the tests exercise, is verdict-based and unaffected).
func testWorkerConfig() lifecycle.Config {
	return lifecycle.Config{ShadowRuns: 2, CanaryRuns: 2, CycleSlack: 1000}
}

// testFleet spins a controller over n in-process workers named w1..wn. Unless
// cfg says otherwise every slot is placed on all n of them.
func testFleet(t *testing.T, n int, cfg Config) (*Controller, *LocalTransport) {
	t.Helper()
	lt := NewLocalTransport()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := "w" + itoa(i+1)
		lt.AddWorker(name, testWorkerConfig())
		names = append(names, name)
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = time.Second
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.BreakerBase == 0 {
		cfg.BreakerBase = 5 * time.Millisecond
	}
	if cfg.TrafficBatch == 0 {
		cfg.TrafficBatch = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Replication == 0 {
		cfg.Replication = n
	}
	c := New(cfg, lt)
	for _, name := range names {
		if err := c.Join(name, name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	return c, lt
}

// runRollout deploys src and drives the rollout to a terminal phase.
func runRollout(t *testing.T, c *Controller, slot, src string) *Rollout {
	t.Helper()
	if err := c.Deploy(slot, src); err != nil {
		t.Fatalf("deploy %s: %v", src, err)
	}
	return driveRollout(t, c)
}

func driveRollout(t *testing.T, c *Controller) *Rollout {
	t.Helper()
	for i := 0; i < 200; i++ {
		done, err := c.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			return c.RolloutStatus()
		}
	}
	t.Fatalf("rollout never terminated: %+v", c.RolloutStatus())
	return nil
}

// liveInsns reports the instruction count of one served packet on the
// worker's live program — the observable that distinguishes fleet versions.
func liveInsns(t *testing.T, lt *LocalTransport, worker, slot string) uint64 {
	t.Helper()
	pkt := make([]byte, 64)
	rv, st, err := lt.Manager(worker).Serve(slot, vm.BuildXDPContext(len(pkt)), pkt)
	if err != nil {
		t.Fatalf("serve on %s: %v", worker, err)
	}
	if rv != 2 {
		t.Fatalf("worker %s serves verdict %d — a divergent program is live", worker, rv)
	}
	return st.Instructions
}

func TestJoinHeartbeatAndLateJoinerReconciles(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap rollout = %+v", r)
	}
	if r := runRollout(t, c, "s", "pass:8"); r.Phase != PhaseDone {
		t.Fatalf("upgrade rollout = %+v", r)
	}

	// A re-announce from a routable worker is a no-op heartbeat.
	ev := len(c.Events())
	if err := c.Join("w1", "w1"); err != nil {
		t.Fatal(err)
	}
	if len(c.Events()) != ev {
		t.Fatalf("heartbeat emitted events: %v", c.Events()[ev:])
	}

	// A worker that died and came back empty before its failures reached
	// DownAfter is only suspect; its announce must still reconcile it.
	lt.Kill("w2")
	if _, err := c.rpc("w2", "tick", false); err == nil {
		t.Fatal("rpc to killed worker succeeded")
	}
	lt.Restart("w2", true)
	if err := c.Join("w2", "w2"); err != nil {
		t.Fatalf("suspect rejoin: %v", err)
	}
	if got, want := liveInsns(t, lt, "w2", "s"), liveInsns(t, lt, "w1", "s"); got != want {
		t.Fatalf("rejoined suspect serves %d insns, fleet serves %d", got, want)
	}

	st := c.FleetStatus()
	if st.Degraded {
		t.Fatalf("fleet degraded after clean join: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Health != Healthy {
			t.Fatalf("worker %s = %s, want healthy", w.Name, w.Health)
		}
	}
}

func TestHealthEscalationBreakerAndRecovery(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c, lt := testFleet(t, 2, Config{
		Now: clock.Now, DownAfter: 3, BreakerBase: 100 * time.Millisecond,
		BreakerMax: 800 * time.Millisecond, Metrics: metrics.New(),
	})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}

	lt.Kill("w2")
	// Transport failures escalate healthy → suspect → down.
	for i := 0; i < 3; i++ {
		if _, err := c.rpc("w2", "tick", false); err == nil {
			t.Fatal("rpc to killed worker succeeded")
		}
	}
	st := c.FleetStatus()
	if !st.Degraded {
		t.Fatalf("fleet not degraded with a down worker: %+v", st)
	}
	if h := workerHealth(st, "w2"); h != Down {
		t.Fatalf("w2 = %s, want down", h)
	}

	// While the breaker is open, RPCs fail fast without touching the net.
	fastBefore := c.met.breakerFast.Value()
	if _, err := c.rpc("w2", "tick", false); err == nil {
		t.Fatal("breaker let an RPC through")
	}
	if c.met.breakerFast.Value() != fastBefore+1 {
		t.Fatal("fast-fail not counted")
	}

	// Cooldown expiry lets one probe through; a failed probe doubles it.
	clock.Advance(200 * time.Millisecond)
	c.Tick()
	cool1 := breakerRemaining(c, "w2")
	if cool1 <= 100*time.Millisecond {
		t.Fatalf("cooldown did not grow after failed probe: %v", cool1)
	}

	// Worker returns; probe succeeds; reconcile re-admits it.
	lt.Restart("w2", true) // fresh state: the restart lost everything
	clock.Advance(2 * time.Second)
	c.Tick()
	st = c.FleetStatus()
	if h := workerHealth(st, "w2"); h != Healthy {
		t.Fatalf("w2 after recovery = %s (%+v)", h, st)
	}
	if st.Degraded {
		t.Fatal("fleet still degraded after recovery")
	}
	// Reconcile must have re-pushed the catalog onto the blank worker.
	if got, want := liveInsns(t, lt, "w2", "s"), liveInsns(t, lt, "w1", "s"); got != want {
		t.Fatalf("recovered worker serves %d insns, fleet serves %d", got, want)
	}
}

func TestTrafficReroutesAroundDeadWorker(t *testing.T) {
	c, lt := testFleet(t, 3, Config{Metrics: metrics.New()})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}
	if rep := c.Traffic("s", 64); rep.Dropped != 0 || rep.Sent != 64 {
		t.Fatalf("healthy fan-out = %+v", rep)
	}

	lt.Kill("w2")
	rep := c.Traffic("s", 128)
	if rep.Dropped != 0 {
		t.Fatalf("packets dropped with two healthy workers: %+v", rep)
	}
	if rep.Sent != 128 {
		t.Fatalf("sent = %d, want 128", rep.Sent)
	}
	if rep.Rerouted == 0 {
		t.Fatalf("no chunk rerouted around the dead worker: %+v", rep)
	}
	if !c.FleetStatus().Degraded {
		t.Fatal("fleet not marked degraded")
	}
	// Once w2 is marked down its ring points are withdrawn: follow-up
	// traffic routes cleanly with no failover hops at all.
	if rep := c.Traffic("s", 64); rep.Rerouted != 0 || rep.Dropped != 0 {
		t.Fatalf("post-down fan-out still rerouting: %+v", rep)
	}
}

func TestAggregatedMetricsCarryWorkerLabels(t *testing.T) {
	c, _ := testFleet(t, 2, Config{Metrics: metrics.New()})
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}
	c.Traffic("s", 32)
	var out strings.Builder
	if err := c.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"merlin_fleet_workers{", "merlin_fleet_degraded 0",
		`worker="w1"`, `worker="w2"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("aggregated metrics missing %q:\n%s", want, text)
		}
	}
}

func workerHealth(st Status, name string) Health {
	for _, w := range st.Workers {
		if w.Name == name {
			return w.Health
		}
	}
	return -1
}

func breakerRemaining(c *Controller, name string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	return w.cooldown
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// The memoised traffic ring must be the ring buildRing gives for the same
// membership — whatever order the pool arrives in — built once per membership
// and rebuilt when the membership differs.
func TestTrafficRingMemoMatchesBuildRing(t *testing.T) {
	c := New(Config{}, NewLocalTransport())
	c.mu.Lock()
	defer c.mu.Unlock()
	want := buildRing([]string{"w1", "w2", "w3"}, c.cfg.VNodes)
	got := c.trafficRingLocked([]string{"w3", "w1", "w2"})
	if len(got.points) != len(want.points) {
		t.Fatalf("memoised ring has %d points, want %d", len(got.points), len(want.points))
	}
	for i := range want.points {
		if got.points[i] != want.points[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got.points[i], want.points[i])
		}
	}
	if again := c.trafficRingLocked([]string{"w2", "w3", "w1"}); again != got {
		t.Fatal("same membership rebuilt the ring")
	}
	two := c.trafficRingLocked([]string{"w1", "w3"})
	if two == got || len(two.points) != 2*c.cfg.VNodes {
		t.Fatalf("a smaller pool must get its own ring, got %d points", len(two.points))
	}
	for i := 0; i < 2*ringMemoCap; i++ {
		c.trafficRingLocked([]string{"w" + itoa(i)})
	}
	if len(c.rings) > ringMemoCap {
		t.Fatalf("memo holds %d rings, cap is %d", len(c.rings), ringMemoCap)
	}
}
