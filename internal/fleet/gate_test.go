package fleet

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
)

// verbCounter counts the RPCs a controller sends, by verb.
type verbCounter struct {
	inner Transport
	mu    sync.Mutex
	n     map[string]int
}

func (v *verbCounter) RPC(ctx context.Context, addr, line string) ([]string, error) {
	verb, _, _ := strings.Cut(line, " ")
	v.mu.Lock()
	v.n[verb]++
	v.mu.Unlock()
	return v.inner.RPC(ctx, addr, line)
}

func (v *verbCounter) reset() map[string]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.n
	v.n = map[string]int{}
	return n
}

// A canary step is one traffic RPC: the reply carries the slot status the
// gate judges, so no status poll and no tick ride along. Two workers, 2
// shadow and 40 canary runs in batches of 2: each worker takes a deploy, 21
// feeds and a promote.
func TestCanaryStepIsOneTrafficRPC(t *testing.T) {
	lt := NewLocalTransport()
	for _, n := range []string{"w1", "w2"} {
		lt.AddWorker(n, lifecycle.Config{ShadowRuns: 2, CanaryRuns: 40, CycleSlack: 1000})
	}
	vc := &verbCounter{inner: lt, n: map[string]int{}}
	c := New(Config{Seed: 42, TrafficBatch: 2, MaxCanarySteps: 200, Metrics: metrics.New()}, vc)
	for _, n := range []string{"w1", "w2"} {
		if err := c.Join(n, n); err != nil {
			t.Fatal(err)
		}
	}
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("bootstrap = %+v", r)
	}
	vc.reset()
	if r := runRollout(t, c, "s", "pass:8"); r.Phase != PhaseDone {
		t.Fatalf("upgrade = %+v", r)
	}
	want := map[string]int{"deploy": 2, "traffic": 42, "promote": 2}
	if got := vc.reset(); !reflect.DeepEqual(got, want) {
		t.Fatalf("upgrade rollout sent %v, want %v", got, want)
	}
	if got, want := liveInsns(t, lt, "w2", "s"), liveInsns(t, lt, "w1", "s"); got != want {
		t.Fatalf("fleet not uniform: %d vs %d", got, want)
	}
}

// promotes counts the times a worker's slot switched generation gen live.
func promotes(lt *LocalTransport, worker, slot string, gen int) int {
	n := 0
	for _, ev := range lt.Manager(worker).Events(slot) {
		if ev.Kind == lifecycle.EventPromoted && ev.Generation == gen {
			n++
		}
	}
	return n
}

// A promote whose reply is lost has landed; both callers of the gate must
// learn that from the next canary feed's status, not promote twice and not
// read the missing candidate as a rejection.
func TestLostPromoteReplyResolvedByNextCanaryFeed(t *testing.T) {
	chaosFleet := func(t *testing.T, n int, cfg Config) (*Controller, *LocalTransport, *ChaosTransport) {
		t.Helper()
		lt := NewLocalTransport()
		ct := WithChaos(lt, chaos.NewNetSchedule(chaos.NetStep{Verb: "promote", Fault: chaos.NetOneWay}))
		cfg.Seed, cfg.TrafficBatch, cfg.Metrics = 42, 4, metrics.New()
		cfg.RetryBase, cfg.BreakerBase = time.Millisecond, 5*time.Millisecond
		c := New(cfg, ct)
		for i := 1; i <= n; i++ {
			name := "w" + itoa(i)
			lt.AddWorker(name, testWorkerConfig())
			if err := c.Join(name, name); err != nil {
				t.Fatal(err)
			}
		}
		if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
			t.Fatalf("bootstrap = %+v", r)
		}
		return c, lt, ct
	}

	t.Run("rollout", func(t *testing.T) {
		c, lt, ct := chaosFleet(t, 2, Config{Replication: 2})
		r := runRollout(t, c, "s", "pass:8")
		if r.Phase != PhaseDone || len(r.Promoted) != len(r.Order) {
			t.Fatalf("upgrade = %+v", r)
		}
		if n := ct.Stats().Injected(); n != 1 {
			t.Fatalf("%d faults injected, want the one lost promote reply", n)
		}
		for _, w := range r.Order {
			st, err := lt.Manager(w).StatusOf("s")
			if err != nil || st.LiveGeneration != 2 || st.CandidateGeneration != 0 {
				t.Fatalf("%s after the upgrade: %+v err=%v", w, st, err)
			}
			if n := promotes(lt, w, "s", 2); n != 1 {
				t.Fatalf("%s promoted %d times, want once", w, n)
			}
		}
	})

	t.Run("repair", func(t *testing.T) {
		clock := &fakeClock{t: time.Unix(1000, 0)}
		c, lt, ct := chaosFleet(t, 3, Config{Replication: 2, Now: clock.Now})
		target := predictRepairTarget(t, c, "s")
		seedIncumbent(t, lt, target, "s", "pass:4")
		victim := c.Placements()["s"][0]
		lt.Kill(victim)
		demoteToDown(t, c, "s", victim)
		for i := 0; i < 40 && c.met.repairsDone["gated"].Value() == 0; i++ {
			c.Tick()
			clock.Advance(time.Second) // past any retry backoff
		}
		if got := c.met.repairsDone["gated"].Value(); got != 1 || c.met.repairsDone["bootstrap"].Value() != 0 {
			t.Fatalf("gated=%d bootstrap=%d, want 1/0", got, c.met.repairsDone["bootstrap"].Value())
		}
		if n := ct.Stats().Injected(); n != 1 {
			t.Fatalf("%d faults injected, want the one lost promote reply", n)
		}
		if reps := c.Placements()["s"]; !slices.Contains(reps, target) || slices.Contains(reps, victim) {
			t.Fatalf("placement after repair = %v (victim %s target %s)", reps, victim, target)
		}
		st, err := lt.Manager(target).StatusOf("s")
		if err != nil || st.LiveGeneration != 2 || st.CandidateGeneration != 0 {
			t.Fatalf("target after the repair: %+v err=%v", st, err)
		}
		if n := promotes(lt, target, "s", 2); n != 1 {
			t.Fatalf("target promoted %d times, want once", n)
		}
	})
}

// testdata/candgen-rollout/journal.log was written by a controller whose
// rollout journaled per-worker candGen/prevLive maps instead of the gate's
// Cand: two workers (order w2, w1), R=2, pass:8 blessed at gen 2, a pass:16
// rollout promoted on w2 and staged on w1, which resolves pass:16 to
// drop:16. Recovered, the staged candidate must still be judged against its
// own generation: w1's gate rejects it, so the rollout fails and unwinds —
// read as Cand 0, the rejection would look like a lost promote reply and the
// catalog would bless pass:16 while w1 still serves gen 2.
func TestCandGenJournalRecoversToSameDecision(t *testing.T) {
	lt := NewLocalTransport()
	for _, n := range []string{"w1", "w2"} {
		lt.AddWorker(n, testWorkerConfig())
	}
	// The world the journal describes, rebuilt by hand.
	w1 := lt.get("w1")
	w1.mu.Lock()
	w1.Resolve = func(desc string) (lifecycle.Source, error) {
		if desc == "pass:16" {
			return ResolveTestSource("drop:16")
		}
		return ResolveTestSource(desc)
	}
	w1.mu.Unlock()
	for w, script := range map[string][]string{
		"w1": {"deploy s pass:0", "deploy s pass:8", "promote s force", "deploy s pass:16"},
		"w2": {"deploy s pass:0", "deploy s pass:8", "promote s force", "deploy s pass:16", "promote s force"},
	} {
		for _, line := range script {
			if lines, err := lt.RPC(context.Background(), w, line); err != nil || !strings.HasPrefix(lastLine(lines), "ok ") {
				t.Fatalf("%s: %s = %v %v", w, line, lines, err)
			}
		}
	}

	dir := t.TempDir()
	b, err := os.ReadFile(filepath.Join("testdata", "candgen-rollout", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	c := New(Config{Seed: 42, TrafficBatch: 4, Replication: 2, RetryBase: time.Millisecond,
		BreakerBase: 5 * time.Millisecond}, lt)
	c.AttachJournal(jl)
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	r := c.RolloutStatus()
	if r == nil || r.Phase != PhaseCanary || r.Idx != 1 || !reflect.DeepEqual(r.Order, []string{"w2", "w1"}) {
		t.Fatalf("recovered rollout = %+v", r)
	}
	c.Tick()
	if r = driveRollout(t, c); r.Phase != PhaseFailed {
		t.Fatalf("resumed rollout = %+v, want failed", r)
	}
	c.Tick()
	if cat := c.FleetStatus().Catalog; len(cat) != 1 || cat[0].Src != "pass:8" || cat[0].Gen != 2 {
		t.Fatalf("catalog = %+v", cat)
	}
	for _, w := range []string{"w1", "w2"} {
		st, err := lt.Manager(w).StatusOf("s")
		if err != nil || st.LiveGeneration != 2 || st.CandidateGeneration != 0 {
			t.Fatalf("%s after the rollback: %+v err=%v", w, st, err)
		}
	}
}

// testdata/rollback-rollout/journal.log was written by a controller that
// unwound a halted rollout itself, one worker per Step, and journaled its
// progress in aborted/rbIdx/skipped: three workers (order w1, w2, w3), R=3,
// pass:8 blessed at gen 2, a pass:16 rollout promoted on w1 and w2 and
// rejected by w3 (which resolves pass:16 to drop:16). The journal ends in
// rollback with w3's candidate aborted, w2 rolled back, and w1 — down at the
// time — skipped. Recovered, the rollout must end failed and every replica,
// w1 included, must be back on the blessed version.
func TestRollbackJournalRecoversToBlessed(t *testing.T) {
	lt := NewLocalTransport()
	for _, n := range []string{"w1", "w2", "w3"} {
		lt.AddWorker(n, testWorkerConfig())
	}
	// The world the journal describes, rebuilt by hand; w1 came back with
	// its state.
	blessed := []string{"deploy s pass:0", "deploy s pass:8", "promote s force"}
	for w, script := range map[string][]string{
		"w1": append(slices.Clone(blessed), "deploy s pass:16", "promote s force"),
		"w2": append(slices.Clone(blessed), "deploy s pass:16", "promote s force", "rollback s"),
		"w3": append(slices.Clone(blessed), "deploy s pass:16", "abort s"),
	} {
		for _, line := range script {
			if lines, err := lt.RPC(context.Background(), w, line); err != nil || !strings.HasPrefix(lastLine(lines), "ok ") {
				t.Fatalf("%s: %s = %v %v", w, line, lines, err)
			}
		}
	}
	want := liveInsns(t, lt, "w2", "s")

	dir := t.TempDir()
	b, err := os.ReadFile(filepath.Join("testdata", "rollback-rollout", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	c := New(Config{Seed: 42, TrafficBatch: 4, Replication: 3, RetryBase: time.Millisecond,
		BreakerBase: 5 * time.Millisecond}, lt)
	c.AttachJournal(jl)
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if r := c.RolloutStatus(); r == nil || r.Phase != PhaseRollback || !slices.Equal(r.Promoted, []string{"w1", "w2"}) {
		t.Fatalf("recovered rollout = %+v", r)
	}
	c.Tick()
	if r := driveRollout(t, c); r.Phase != PhaseFailed {
		t.Fatalf("resumed rollout = %+v, want failed", r)
	}
	c.Tick()
	if cat := c.FleetStatus().Catalog; len(cat) != 1 || cat[0].Src != "pass:8" || cat[0].Gen != 2 {
		t.Fatalf("catalog = %+v", cat)
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		st, err := lt.Manager(w).StatusOf("s")
		if err != nil || st.CandidateGeneration != 0 {
			t.Fatalf("%s after recovery: %+v err=%v", w, st, err)
		}
		if got := liveInsns(t, lt, w, "s"); got != want {
			t.Fatalf("%s serves %d insns, the blessed pass:8 serves %d", w, got, want)
		}
	}
}

// Gauges are republished where their inputs change, not after every RPC:
// at every step of a kill → demote → repair → rejoin, the registry already
// holds what a fresh gaugesLocked would publish.
func TestGaugesNeverStale(t *testing.T) {
	c, lt := placementFleet(t, 4, Config{})
	fresh := func(step string) {
		t.Helper()
		before := c.cfg.Metrics.Snapshot()
		c.mu.Lock()
		c.gaugesLocked()
		c.mu.Unlock()
		if after := c.cfg.Metrics.Snapshot(); !reflect.DeepEqual(before, after) {
			for k, v := range after {
				if before[k] != v {
					t.Errorf("%s: %s = %d, fresh gauges say %d", step, k, before[k], v)
				}
			}
			t.FailNow()
		}
	}
	fresh("join")
	if r := runRollout(t, c, "s", "pass:0"); r.Phase != PhaseDone {
		t.Fatalf("rollout = %+v", r)
	}
	fresh("rollout")
	victim := c.Placements()["s"][0]
	lt.Kill(victim)
	for i := 0; i < 50 && workerHealth(c.FleetStatus(), victim) != Down; i++ {
		c.Traffic("s", 32)
		fresh("traffic")
	}
	for i := 0; i < 10 && slices.Contains(c.Placements()["s"], victim); i++ {
		c.Tick()
		fresh("tick")
	}
	if slices.Contains(c.Placements()["s"], victim) {
		t.Fatalf("placement never repaired: %v", c.Placements()["s"])
	}
	lt.Restart(victim, false)
	if err := c.Join(victim, victim); err != nil {
		t.Fatal(err)
	}
	fresh("rejoin")
}
