package fleet

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/journal"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// The chaos-scenario runner. A world is N in-process workers behind a chaos
// transport (a mutable partition over seeded faults on control RPCs), an
// optional shared token, and a journaled controller with every slot on two
// replicas. A schedule drives it step by step while a background pump fans
// traffic out, and one audit set judges the fleet after every step:
//
//   - no fan-out drops packets while a worker the world kept reachable for
//     the whole fan-out held the slot before and after it;
//   - the catalog blesses only pass:* sources;
//   - once the rollout has settled, every routable replica answers XDP_PASS.
//
// After the schedule the world heals, converges fault-free and is judged
// once more: every worker healthy, each slot's replicas running the same
// program, nothing under-replicated, no RPC refused for its token, and a
// cold controller recovered from the journal reconciles nothing and drops
// nothing.

// The schedule vocabulary.
const (
	opKill      = "kill"      // take a worker off the network (one at a time)
	opRestart   = "restart"   // bring the killed worker back and announce it
	opPartition = "partition" // cut a worker's replies off (one at a time)
	opHeal      = "heal"      // heal the partition
	opDeploy    = "deploy"    // start a rolling deploy
	opDrive     = "drive"     // a few rollout steps, then a maintenance tick
	opCrash     = "crash"     // the controller dies; a successor recovers its journal
	opConverge  = "converge"  // drive until the fleet has healed around what is down
)

// step is one schedule entry. A kill or partition takes the first replica
// of slot when one is named, else a seeded pick among reachable workers.
type step struct {
	op        string
	slot, src string // deploy; kill and partition take slot's replica
	fresh     bool   // restart with the worker's state wiped
}

// controlFaults fires its plan on control RPCs while on. Traffic is exempt,
// so a drop can only mean the controller failed to use a route it had.
type controlFaults struct {
	on   atomic.Bool
	plan chaos.NetPlan
}

func (f *controlFaults) NextNet(worker, verb string) chaos.NetFault {
	fault := f.plan.NextNet(worker, verb) // always drawn: the sequence stays seeded
	if !f.on.Load() || verb == "traffic" {
		return chaos.NetNone
	}
	return fault
}

type world struct {
	t      *testing.T
	seed   int64
	token  string
	lt     *LocalTransport
	part   *chaos.Partition
	faults *controlFaults
	ct     *ChaosTransport
	reg    *metrics.Registry
	names  []string
	slots  []string
	dir    string
	jl     *journal.Log   // replaced by each crash
	rng    uint64         // victim picks
	counts map[string]int // steps that took effect, by op

	mu             sync.Mutex
	ctl            *Controller
	epoch          int    // moves whenever killed or parted does
	killed, parted string // the world's ground truth of who is unreachable
	violation      error  // the pump's first audit failure

	sent, dropped atomic.Int64
}

// newWorld builds the world, bootstraps nslots slots fault-free, then starts
// the pump and arms the control-RPC faults.
func newWorld(t *testing.T, seed int64, workers, nslots int, token string, faultRate float64) *world {
	t.Helper()
	w := &world{t: t, seed: seed, token: token, lt: NewLocalTransport(), part: chaos.NewPartition(),
		faults: &controlFaults{plan: chaos.NewNetRate(seed+1, faultRate,
			chaos.NetOneWay, chaos.NetDup, chaos.NetDrop, chaos.NetReset)},
		reg: metrics.New(), slots: []string{"alpha", "beta", "gamma"}[:nslots],
		dir: t.TempDir(), rng: uint64(seed), counts: map[string]int{}}
	w.ct = WithChaos(w.lt, chaos.NetChain{w.part, w.faults})
	for i := 1; i <= workers; i++ {
		name := "w" + itoa(i)
		w.lt.AddWorker(name, testWorkerConfig())
		w.lt.SetToken(name, token)
		w.names = append(w.names, name)
	}
	var err error
	if w.jl, err = journal.OpenWith(w.dir, journal.Options{SegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	w.ctl = w.newController()
	w.ctl.AttachJournal(w.jl)
	for _, name := range w.names {
		if err := w.ctl.Join(name, name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	for i, sl := range w.slots {
		if r := runRollout(t, w.ctl, sl, "pass:"+itoa(4+4*i)); r.Phase != PhaseDone {
			t.Fatalf("bootstrap %s = %+v", sl, r)
		}
		if reps := w.ctl.Placements()[sl]; len(reps) != 2 {
			t.Fatalf("bootstrap placed %s on %v, want 2 replicas", sl, reps)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.pump(stop)
	}()
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
		w.jl.Close()
	})
	w.faults.on.Store(true)
	return w
}

// newController is one controller incarnation: short timers so breakers,
// probes and repairs cycle within a test, placement at R=2, every
// incarnation on the same registry.
func (w *world) newController() *Controller {
	return New(Config{
		RPCTimeout: time.Second,
		RetryBase:  time.Millisecond, RetryMax: 20 * time.Millisecond,
		BreakerBase: 5 * time.Millisecond, BreakerMax: 100 * time.Millisecond,
		TrafficBatch: 4, CompactEvery: 64, Replication: 2, AuthToken: w.token,
		Seed: uint64(w.seed+int64(w.counts[opCrash])) | 1, Metrics: w.reg,
	}, w.ct)
}

func (w *world) controller() *Controller {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctl
}

// truth is the ground truth: its epoch and who is unreachable.
func (w *world) truth() (int, map[string]bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch, map[string]bool{w.killed: true, w.parted: true}
}

// setTruth records a reachability change. An outage is recorded before it
// starts and its end after it ends, so the truth never calls a worker
// reachable while it is not.
func (w *world) setTruth(killed, parted string) {
	w.mu.Lock()
	w.epoch++
	w.killed, w.parted = killed, parted
	w.mu.Unlock()
}

// run plays the schedule with the audits after every step, then quiesces
// fault-free and runs the final audits.
func (w *world) run(schedule []step) {
	w.t.Helper()
	for i, s := range schedule {
		w.apply(s)
		if err := w.audit(); err != nil {
			w.t.Fatalf("after step %d %+v: %v", i, s, err)
		}
	}
	w.faults.on.Store(false)
	for _, s := range []step{{op: opHeal}, {op: opRestart}, {op: opConverge}} {
		w.apply(s)
	}
	if err := w.finalAudit(); err != nil {
		w.t.Fatalf("final: %v", err)
	}
}

func (w *world) apply(s step) {
	w.t.Helper()
	c := w.controller()
	w.mu.Lock()
	killed, parted := w.killed, w.parted
	w.mu.Unlock()
	switch {
	case s.op == opKill && killed == "":
		victim := w.victim(s.slot)
		w.setTruth(victim, parted)
		w.lt.Kill(victim)
	case s.op == opRestart && killed != "":
		w.lt.Restart(killed, s.fresh)
		w.setTruth("", parted)
		_ = c.Join(killed, killed) // a failed announce is retried by Tick's probes
	case s.op == opPartition && parted == "":
		victim := w.victim(s.slot)
		w.setTruth(killed, victim)
		w.part.Isolate(victim, chaos.NetOneWay)
	case s.op == opHeal && parted != "":
		w.part.Heal(parted)
		w.setTruth(killed, "")
	case s.op == opDeploy:
		if c.Deploy(s.slot, s.src) != nil {
			return // a rollout is still in flight
		}
	case s.op == opDrive:
		drive(c, 6)
		c.Tick()
	case s.op == opCrash:
		w.crash(c)
	case s.op == opConverge:
		w.converge()
	default:
		return
	}
	w.counts[s.op]++
}

// victim picks the worker a kill or partition takes.
func (w *world) victim(slot string) string {
	if slot != "" {
		if reps := w.controller().Placements()[slot]; len(reps) > 0 {
			return reps[0]
		}
		w.t.Fatalf("slot %s has no placement", slot)
	}
	_, down := w.truth()
	for {
		w.rng = splitmix64(w.rng)
		if n := w.names[w.rng%uint64(len(w.names))]; !down[n] {
			return n
		}
	}
}

func drive(c *Controller, budget int) {
	for i := 0; i < budget; i++ {
		if done, _ := c.Step(); done {
			return
		}
	}
}

// crash kills the controller mid-flight: its successor must recover every
// worker and the exact placement map, and takes over after one Tick.
func (w *world) crash(c *Controller) {
	w.t.Helper()
	before := c.Placements()
	nc, rs := w.takeOver()
	if rs.Workers != len(w.names) || rs.Placements != len(before) {
		w.t.Fatalf("recovered %d workers / %d placements, want %d / %d",
			rs.Workers, rs.Placements, len(w.names), len(before))
	}
	for sl, want := range before {
		if got := nc.Placements()[sl]; !slices.Equal(got, want) {
			w.t.Fatalf("placement of %s drifted across recovery: %v != %v", sl, got, want)
		}
	}
	nc.Tick()
	w.mu.Lock()
	w.ctl = nc
	w.mu.Unlock()
}

// takeOver closes and reopens the journal — the state dir is all that
// survives a crash — and recovers a fresh controller from it.
func (w *world) takeOver() (*Controller, RecoverStats) {
	w.t.Helper()
	if err := w.jl.Close(); err != nil {
		w.t.Fatal(err)
	}
	var err error
	if w.jl, err = journal.OpenWith(w.dir, journal.Options{SegmentBytes: 4096}); err != nil {
		w.t.Fatal(err)
	}
	c := w.newController()
	c.AttachJournal(w.jl)
	rs, err := c.Recover()
	if err != nil {
		w.t.Fatalf("recover: %v", err)
	}
	return c, rs
}

// converge drives the fleet, auditing as it goes, until the rollout has
// settled, every reachable worker is healthy, every slot has two live
// replicas none of which is down, and no reachable worker still holds a copy
// it is not placed for.
func (w *world) converge() {
	w.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c := w.controller()
		c.Tick()
		drive(c, 50)
		if err := w.audit(); err != nil {
			w.t.Fatalf("converging: %v", err)
		}
		why := w.unconverged(c)
		if why == "" {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("fleet never converged: %s\n  %s", why, strings.Join(c.FleetStatus().Lines(), "\n  "))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *world) unconverged(c *Controller) string {
	st := c.FleetStatus()
	if !rolloutSettled(st.Rollout) {
		return "rollout in flight"
	}
	_, down := w.truth()
	for _, wi := range st.Workers {
		if !down[wi.Name] && wi.Health != Healthy {
			// Re-announce, as merlind's announce loop does: a suspect worker
			// that holds no replica is sent nothing that would clear it.
			_ = c.Join(wi.Name, wi.Name)
			return wi.Name + " is " + wi.Health.String()
		}
	}
	if len(st.Placements) != len(w.slots) {
		return "slots unplaced"
	}
	for _, pv := range st.Placements {
		if len(pv.Replicas) != 2 || pv.Live != 2 || slices.ContainsFunc(pv.Replicas, func(n string) bool { return down[n] }) {
			return fmt.Sprintf("%s on %v, %d live", pv.Slot, pv.Replicas, pv.Live)
		}
	}
	placed := c.Placements()
	for _, n := range w.names {
		for _, sl := range w.slots {
			if _, err := w.lt.Manager(n).StatusOf(sl); err == nil && !down[n] && !slices.Contains(placed[sl], n) {
				return n + " still holds " + sl
			}
		}
	}
	return ""
}

// pump fans traffic out over every blessed slot until stop, latching the
// first audit failure for the schedule to report.
func (w *world) pump(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		c := w.controller()
		for _, cs := range c.FleetStatus().Catalog {
			if err := w.traffic(c, cs.Name, 8); err != nil {
				w.mu.Lock()
				if w.violation == nil {
					w.violation = fmt.Errorf("pump: %w", err)
				}
				w.mu.Unlock()
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// traffic sends one audited fan-out. A drop is a violation when some worker
// the world kept reachable throughout held the slot before and after: the
// controller had a route and did not use it. Drops during a total outage
// are counted, and fan-outs that overlap a reachability change are not
// judged.
func (w *world) traffic(c *Controller, slot string, n int) error {
	e0, _ := w.truth()
	before := w.holders(slot)
	tr := c.Traffic(slot, n)
	w.sent.Add(int64(tr.Sent))
	w.dropped.Add(int64(tr.Dropped))
	e1, down := w.truth()
	if tr.Dropped == 0 || e0 != e1 {
		return nil
	}
	after := w.holders(slot)
	for _, name := range w.names {
		if !down[name] && before[name] && after[name] {
			return fmt.Errorf("dropped %d packets for %s while reachable %s holds it\n  %s",
				tr.Dropped, slot, name, strings.Join(c.FleetStatus().Lines(), "\n  "))
		}
	}
	return nil
}

func (w *world) holders(slot string) map[string]bool {
	held := map[string]bool{}
	for _, name := range w.names {
		_, err := w.lt.Manager(name).StatusOf(slot)
		held[name] = err == nil
	}
	return held
}

// audit is the per-step audit set.
func (w *world) audit() error {
	c := w.controller()
	st := c.FleetStatus()
	for _, cs := range st.Catalog {
		if !strings.HasPrefix(cs.Src, "pass:") {
			return fmt.Errorf("catalog blessed %q for %s", cs.Src, cs.Name)
		}
		if err := w.traffic(c, cs.Name, 16); err != nil {
			return err
		}
	}
	w.mu.Lock()
	err := w.violation
	w.mu.Unlock()
	if err != nil || !rolloutSettled(st.Rollout) {
		return err
	}
	healthy := map[string]bool{}
	for _, wi := range st.Workers {
		healthy[wi.Name] = wi.Health == Healthy
	}
	for _, pv := range st.Placements {
		for _, name := range pv.Replicas {
			if !healthy[name] {
				continue
			}
			if _, err := serveVerdict(w.lt, name, pv.Slot); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalAudit judges the quiesced fleet, then recovers a cold controller.
func (w *world) finalAudit() error {
	c := w.controller()
	for _, wi := range c.FleetStatus().Workers {
		if wi.Health != Healthy {
			return fmt.Errorf("worker %s ended %s", wi.Name, wi.Health)
		}
	}
	for slot, holders := range c.Placements() {
		var want uint64
		for i, name := range holders {
			insns, err := serveVerdict(w.lt, name, slot)
			if err != nil {
				return err
			}
			if i > 0 && insns != want {
				return fmt.Errorf("%s not uniform: %s serves %d insns, %s %d", slot, name, insns, holders[0], want)
			}
			want = insns
		}
	}
	if n := w.reg.Snapshot()["merlin_fleet_under_replicated"]; n != 0 {
		return fmt.Errorf("%d slots under-replicated", n)
	}
	for _, name := range w.names {
		if n := w.lt.AuthFailures(name); n != 0 {
			return fmt.Errorf("%s refused %d RPCs for their token", name, n)
		}
	}
	c.Flush()
	cold, rs := w.takeOver()
	if rs.Workers != len(w.names) || rs.Slots != len(w.slots) {
		return fmt.Errorf("cold recovery found %d workers / %d slots, want %d / %d",
			rs.Workers, rs.Slots, len(w.names), len(w.slots))
	}
	cold.Tick()
	for _, ev := range cold.Events() {
		if ev.Kind == EventReconciled {
			return fmt.Errorf("journal drifted from the fleet: %s", ev)
		}
	}
	for _, sl := range w.slots {
		if tr := cold.Traffic(sl, 32); tr.Dropped != 0 {
			return fmt.Errorf("cold controller dropped %d packets for %s", tr.Dropped, sl)
		}
	}
	return nil
}

func rolloutSettled(r *Rollout) bool {
	return r == nil || r.terminal()
}

// serveVerdict serves one packet on the worker's live program and returns
// its instruction count, the observable that tells versions apart. Any
// verdict but XDP_PASS means a divergent program is live.
func serveVerdict(lt *LocalTransport, worker, slot string) (uint64, error) {
	pkt := make([]byte, 64)
	rv, st, err := lt.Manager(worker).Serve(slot, vm.BuildXDPContext(len(pkt)), pkt)
	if err != nil {
		return 0, fmt.Errorf("serve %s on %s: %w", slot, worker, err)
	}
	if rv != 2 {
		return 0, fmt.Errorf("worker %s serves verdict %d for %s: a divergent program is live", worker, rv, slot)
	}
	return st.Instructions, nil
}

// replicaLoss is the fixed replica-loss schedule over four token-armed
// workers: a replica is killed and later restarted with its stale copies, a
// replica is partitioned and healed, and the controller crashes. Each
// outage leaves every slot a reachable replica, so nothing may drop.
var replicaLoss = []step{
	{op: opKill, slot: "alpha"}, {op: opConverge},
	{op: opRestart}, {op: opConverge},
	{op: opPartition, slot: "beta"}, {op: opConverge},
	{op: opHeal}, {op: opConverge},
	{op: opCrash},
}

// randomSchedule draws a seeded schedule from the same vocabulary: each
// round one kill, restart, partition, heal or deploy (or nothing), then a
// drive, with a controller crash every 20th round. Every 4th deploy is a
// divergent drop:N and every 9th an unbuildable bad:N, so rollouts halt at
// both the canary gate and the deploy.
func randomSchedule(seed int64, rounds int, slots []string) []step {
	rng := uint64(seed)*2654435761 + 11
	next := func() uint64 { rng = splitmix64(rng); return rng }
	var s []step
	for r, v := 0, 2; r < rounds; r++ {
		if r > 0 && r%20 == 0 {
			s = append(s, step{op: opCrash})
		}
		switch next() % 8 {
		case 0:
			s = append(s, step{op: opKill})
		case 1:
			s = append(s, step{op: opRestart, fresh: next()%2 == 0})
		case 2:
			s = append(s, step{op: opPartition})
		case 3:
			s = append(s, step{op: opHeal})
		case 4, 5:
			src := "pass:" + itoa(4+4*(v%13))
			if v%4 == 3 {
				src = "drop:" + itoa(4+v%13)
			} else if v%9 == 7 {
				src = "bad:" + itoa(v)
			}
			s = append(s, step{op: opDeploy, slot: slots[v%len(slots)], src: src})
			v++
		}
		s = append(s, step{op: opDrive})
	}
	return s
}

// TestScenarioReplicaLoss: the fixed replica-loss schedule, R=2 over four
// token-armed workers. Beyond the audits, nothing drops at all, traffic
// fails over, and both outages are repaired through the pipeline.
func TestScenarioReplicaLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		if testing.Short() && seed > 1 {
			break // the seed sweep is skipped in -short
		}
		t.Run("seed"+itoa(int(seed)), func(t *testing.T) {
			w := newWorld(t, seed, 4, 3, "soak-secret", 0)
			w.run(replicaLoss)
			snap := w.reg.Snapshot()
			var repairs int64
			for k, v := range snap {
				if strings.HasPrefix(k, "merlin_fleet_repairs_completed_total") {
					repairs += v
				}
			}
			if w.dropped.Load() != 0 || repairs < 2 || snap["merlin_fleet_failovers_total"] == 0 {
				t.Fatalf("dropped=%d repairs=%d failovers=%d, want 0, >= 2, > 0",
					w.dropped.Load(), repairs, snap["merlin_fleet_failovers_total"])
			}
			if w.counts[opKill] != 1 || w.counts[opPartition] != 1 || w.counts[opCrash] != 1 {
				t.Fatalf("a chaos step did not take effect: %v", w.counts)
			}
		})
	}
}

// TestScenarioFleet: seeded random schedules over three workers with 2%
// control-RPC faults. Each seed walks different kill, partition, deploy and
// crash interleavings through the same audits; a kill plus a partition can
// take out both replicas of a slot, which is the total outage the zero-drop
// audit must tell apart from a routing bug. Seed 62 is the schedule that
// most often left a healthy worker holding a copy it was not placed for.
func TestScenarioFleet(t *testing.T) {
	var seeds []int64
	for s := int64(1); s <= 24; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range append(seeds, 62) {
		if testing.Short() && seed > 1 {
			break // the seed sweep is skipped in -short
		}
		t.Run("seed"+itoa(int(seed)), func(t *testing.T) {
			w := newWorld(t, seed, 3, 2, "", 0.02)
			rounds := 25
			if seed == 1 {
				rounds = 40
			}
			w.run(randomSchedule(seed, rounds, w.slots))
			t.Logf("steps %v sent=%d dropped=%d net=%+v", w.counts, w.sent.Load(), w.dropped.Load(), w.ct.Stats())
			if w.sent.Load() == 0 || w.counts[opDeploy] < 3 || w.counts[opKill]+w.counts[opPartition] == 0 ||
				w.counts[opCrash] == 0 {
				t.Fatalf("schedule was not eventful: %v", w.counts)
			}
		})
	}
}

// TestScenarioAuditsCatchViolations: each audit fails on the violation it
// exists to catch, injected behind the world's back.
func TestScenarioAuditsCatchViolations(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		w := newWorld(t, 1, 3, 1, "", 0)
		// The truth still calls every worker reachable, so a drop is a
		// route the controller failed to use.
		w.part.IsolateSet(chaos.NetDrop, w.names...)
		if err := w.traffic(w.controller(), "alpha", 8); err == nil || !strings.Contains(err.Error(), "dropped") {
			t.Fatalf("traffic audit = %v, want a drop violation", err)
		}
	})
	t.Run("divergent", func(t *testing.T) {
		w := newWorld(t, 1, 3, 1, "", 0)
		// Wiped, the replica takes the next deploy live without a gate, so
		// the pump's traffic cannot get the candidate rejected first.
		victim := w.controller().Placements()["alpha"][0]
		w.lt.Restart(victim, true)
		if lines, err := w.lt.RPC(context.Background(), victim, "deploy alpha drop:1"); err != nil {
			t.Fatal(err)
		} else if _, ok := ReplyOK(lines); !ok {
			t.Fatalf("deploy: %v", lines)
		}
		if err := w.audit(); err == nil || !strings.Contains(err.Error(), "divergent") {
			t.Fatalf("audit = %v, want a divergent-verdict violation", err)
		}
	})
}
