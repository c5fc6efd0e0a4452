// The fleet half of the soak package: where RunSoak hammers one manager's
// storage, RunFleet hammers the whole control plane. A controller drives N
// in-process workers through rolling deploys and traffic fan-out while a
// seeded schedule kills workers, imposes one-way partitions, injects random
// network faults into control RPCs, and SIGKILLs the controller itself —
// then audits the invariants the fleet tier promises:
//
//  1. no slot is lost: every traffic fan-out lands somewhere as long as one
//     reachable worker holds the program (a drop is tolerated only during a
//     total outage — every holder killed or partitioned at once);
//  2. no divergent program is promoted anywhere the controller routes to,
//     and the catalog never blesses one;
//  3. the controller journal replays to the observed fleet state: a cold
//     recovery at the end reconciles with zero corrective pushes.
//
// Like RunSoak this is a plain library: tests and ci.sh drive it with their
// own budgets, the harness churns and reports, the caller asserts.
package soak

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/fleet"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// FleetConfig parameterizes one fleet soak run.
type FleetConfig struct {
	// Dir hosts the controller journal (required).
	Dir string
	// Seed drives the churn schedule and every chaos plan.
	Seed int64
	// Rounds is the churn-loop length (default 60).
	Rounds int
	// Workers is the fleet size (default 3, minimum 3). Each slot is placed
	// on the controller's default two replicas, so one kill plus one
	// partition can take out both: the no-route-lost audit then judges a
	// total outage.
	Workers int
	// TrafficPerRound is the per-slot fan-out the driver sends each round
	// (default 24); a background pump adds more concurrently.
	TrafficPerRound int
	// ControllerKillEvery SIGKILLs and journal-recovers the controller every
	// this many rounds (default 20; negative disables).
	ControllerKillEvery int
	// FaultRate is the probability of a random network fault per control RPC
	// (default 0.02). Traffic RPCs are exempt: the zero-drop audit must fail
	// only on routing bugs, never on every replica being faulted at once.
	FaultRate float64
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Rounds <= 0 {
		c.Rounds = 60
	}
	if c.Workers < 3 {
		c.Workers = 3
	}
	if c.TrafficPerRound <= 0 {
		c.TrafficPerRound = 24
	}
	if c.ControllerKillEvery == 0 {
		c.ControllerKillEvery = 20
	}
	if c.FaultRate == 0 {
		c.FaultRate = 0.02
	}
	if c.FaultRate < 0 {
		c.FaultRate = 0
	}
	return c
}

// FleetReport is what one fleet soak observed.
type FleetReport struct {
	Rounds  int
	Deploys int
	// Rollout outcomes witnessed (a rollout may span rounds).
	RolloutsDone, RolloutsFailed int
	// Chaos actions taken.
	Kills, Restarts, Partitions, Heals int
	ControllerRecoveries               int
	// Traffic totals across driver and pump. Dropped counts packets lost
	// during a total outage — every worker holding the program unreachable —
	// which is the only circumstance a drop is not an audit violation.
	Sent, Rerouted, Dropped int
	// Network-fault accounting from the chaos transport.
	NetRPCs, NetFaults int
}

func (r *FleetReport) String() string {
	return fmt.Sprintf("rounds=%d deploys=%d rollouts_done=%d rollouts_failed=%d "+
		"kills=%d restarts=%d partitions=%d heals=%d controller_recoveries=%d "+
		"sent=%d rerouted=%d dropped=%d net_rpcs=%d net_faults=%d",
		r.Rounds, r.Deploys, r.RolloutsDone, r.RolloutsFailed,
		r.Kills, r.Restarts, r.Partitions, r.Heals, r.ControllerRecoveries,
		r.Sent, r.Rerouted, r.Dropped, r.NetRPCs, r.NetFaults)
}

// controlOnly applies its inner fault plan to control-verb RPCs only,
// letting traffic fan-out through untouched.
type controlOnly struct{ inner chaos.NetPlan }

func (p controlOnly) NextNet(worker, verb string) chaos.NetFault {
	f := p.inner.NextNet(worker, verb) // always consult: seeded plans stay deterministic
	if verb == "traffic" {
		return chaos.NetNone
	}
	return f
}

// gatedPlan switches its inner plan on and off, so bootstrap and the final
// quiesce run fault-free while the churn loop runs under fire.
type gatedPlan struct {
	mu    sync.Mutex
	on    bool
	inner chaos.NetPlan
}

func (g *gatedPlan) set(on bool) {
	g.mu.Lock()
	g.on = on
	g.mu.Unlock()
}

func (g *gatedPlan) NextNet(worker, verb string) chaos.NetFault {
	f := g.inner.NextNet(worker, verb)
	g.mu.Lock()
	on := g.on
	g.mu.Unlock()
	if !on {
		return chaos.NetNone
	}
	return f
}

// fleetSrc picks the next source descriptor: mostly distinct pass:N
// versions, with a divergent drop:* every 4th deploy and an unbuildable
// bad:* every 9th, so halts fire at both the canary gate and the deploy.
func fleetSrc(v int) string {
	switch {
	case v%4 == 3:
		return fmt.Sprintf("drop:%d", 4+v%13)
	case v%9 == 7:
		return fmt.Sprintf("bad:%d", v)
	default:
		return fmt.Sprintf("pass:%d", 4+4*(v%13))
	}
}

func rolloutSettled(r *fleet.Rollout) bool {
	return r == nil || r.Phase == fleet.PhaseDone || r.Phase == fleet.PhaseFailed
}

// groundTruth is the soak's own record of which workers are physically
// unreachable — the killed one and the partitioned one — versioned so a
// traffic audit can tell whether the world changed under it mid-fan-out.
type groundTruth struct {
	mu      sync.Mutex
	version int
	killed  string
	parted  string
}

func (g *groundTruth) set(killed, parted string) {
	g.mu.Lock()
	g.version++
	g.killed, g.parted = killed, parted
	g.mu.Unlock()
}

func (g *groundTruth) snapshot() (int, string, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version, g.killed, g.parted
}

// fleetSoakControllerConfig is the controller tuning shared by every
// controller incarnation in one run — short timers so breakers and probes
// cycle within the test budget.
func fleetSoakControllerConfig(seed int64, reg *metrics.Registry) fleet.Config {
	return fleet.Config{
		RPCTimeout: time.Second,
		RetryBase:  time.Millisecond, RetryMax: 20 * time.Millisecond,
		BreakerBase: 5 * time.Millisecond, BreakerMax: 100 * time.Millisecond,
		TrafficBatch: 4, VNodes: 16, CompactEvery: 64,
		Seed: uint64(seed) | 1, Metrics: reg,
	}
}

// RunFleet executes one seeded fleet soak and returns its report; any audit
// violation returns a non-nil error alongside whatever was counted so far.
func RunFleet(cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	rep := &FleetReport{}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("fleet soak: Dir is required")
	}

	// The world: N in-process workers behind a chaos transport layering a
	// mutable partition set over gated random control-RPC faults.
	lt := fleet.NewLocalTransport()
	names := make([]string, 0, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		lt.AddWorker(name, lifecycle.Config{ShadowRuns: 2, CanaryRuns: 2, CycleSlack: 1000})
		names = append(names, name)
	}
	part := chaos.NewPartition()
	gate := &gatedPlan{inner: controlOnly{chaos.NewNetRate(cfg.Seed+1, cfg.FaultRate,
		chaos.NetOneWay, chaos.NetDup, chaos.NetDrop, chaos.NetReset)}}
	ct := fleet.WithChaos(lt, chaos.NetChain{part, gate})
	ct.Delay = time.Millisecond

	reg := metrics.New()
	journalOpts := journal.Options{SegmentBytes: 4096}
	jl, err := journal.OpenWith(cfg.Dir, journalOpts)
	if err != nil {
		return rep, fmt.Errorf("fleet soak: open journal: %w", err)
	}
	defer func() {
		if jl != nil {
			jl.Close()
		}
	}()

	ctl := fleet.New(fleetSoakControllerConfig(cfg.Seed, reg), ct)
	ctl.AttachJournal(jl)

	// cur is the live controller; the crash/recover path swaps it.
	var cmu sync.RWMutex
	cur := ctl
	getCtl := func() *fleet.Controller {
		cmu.RLock()
		defer cmu.RUnlock()
		return cur
	}

	for _, name := range names {
		if err := getCtl().Join(name, name); err != nil {
			return rep, fmt.Errorf("fleet soak: join %s: %w", name, err)
		}
	}

	// Bootstrap the catalog fault-free: two slots, distinct versions.
	slots := []string{"alpha", "beta"}
	drive := func(c *fleet.Controller, budget int) *fleet.Rollout {
		for i := 0; i < budget; i++ {
			if done, _ := c.Step(); done {
				break
			}
		}
		return c.RolloutStatus()
	}
	for i, sl := range slots {
		if err := getCtl().Deploy(sl, fmt.Sprintf("pass:%d", 4+4*i)); err != nil {
			return rep, fmt.Errorf("fleet soak: bootstrap %s: %w", sl, err)
		}
		if r := drive(getCtl(), 200); r == nil || r.Phase != fleet.PhaseDone {
			return rep, fmt.Errorf("fleet soak: bootstrap rollout %s = %+v", sl, r)
		}
		rep.Deploys++
		rep.RolloutsDone++
	}
	gate.set(true)

	gt := &groundTruth{}

	// trafficAudit sends one fan-out and judges any drop against ground
	// truth: a drop is a violation only if some worker that was reachable for
	// the whole fan-out held the slot's program before and after it — the
	// controller had a route and failed to use it. Drops during a total
	// outage (every holder killed or partitioned at once) are legitimately
	// lost packets, merely counted; fan-outs racing a kill/heal transition,
	// or a repair landing the slot on a new holder, are ambiguous and not
	// judged.
	holding := func(slot string) map[string]bool {
		held := map[string]bool{}
		for _, name := range names {
			_, err := lt.Manager(name).StatusOf(slot)
			held[name] = err == nil
		}
		return held
	}
	trafficAudit := func(c *fleet.Controller, slot string, n int) (fleet.TrafficReport, error) {
		v0, _, _ := gt.snapshot()
		before := holding(slot)
		tr := c.Traffic(slot, n)
		if tr.Dropped == 0 {
			return tr, nil
		}
		v1, k, p := gt.snapshot()
		if v0 != v1 {
			return tr, nil
		}
		after := holding(slot)
		for _, name := range names {
			if name == k || name == p || !before[name] || !after[name] {
				continue // unreachable, or did not hold the program throughout
			}
			evs := c.Events()
			if len(evs) > 12 {
				evs = evs[len(evs)-12:]
			}
			var evLines []string
			for _, ev := range evs {
				evLines = append(evLines, ev.String())
			}
			return tr, fmt.Errorf("dropped %d packets for %s while reachable %s holds it (killed=%q parted=%q)\n  %s\nevents:\n  %s",
				tr.Dropped, slot, name, k, p,
				strings.Join(c.FleetStatus().Lines(), "\n  "), strings.Join(evLines, "\n  "))
		}
		return tr, nil
	}

	// The pump: background traffic hammering every blessed slot while the
	// driver churns, so fan-out, rollouts, probes and recovery all interleave
	// under -race. Violations are latched for the driver to surface.
	var pumpSent, pumpRerouted, pumpDropped atomic.Int64
	var pumpErrMu sync.Mutex
	var pumpErr error
	getPumpErr := func() error {
		pumpErrMu.Lock()
		defer pumpErrMu.Unlock()
		return pumpErr
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := getCtl()
			for _, cs := range c.FleetStatus().Catalog {
				tr, err := trafficAudit(c, cs.Name, 8)
				pumpSent.Add(int64(tr.Sent))
				pumpRerouted.Add(int64(tr.Rerouted))
				pumpDropped.Add(int64(tr.Dropped))
				if err != nil {
					pumpErrMu.Lock()
					if pumpErr == nil {
						pumpErr = fmt.Errorf("pump: %w", err)
					}
					pumpErrMu.Unlock()
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := splitmix64(cfg.Seed*2654435761 + 11)
	pick := func(exclude string) string {
		for {
			n := names[int(rng.next()%uint64(len(names)))]
			if n != exclude {
				return n
			}
		}
	}

	killed, parted := "", ""
	version := 2
	counted := map[string]bool{}

	for round := 0; round < cfg.Rounds; round++ {
		rep.Rounds = round + 1

		// Periodically the controller "dies": the journal handle is all that
		// survives. A fresh controller recovers from it against the same
		// fleet and takes over only after its first Tick re-admits workers.
		if cfg.ControllerKillEvery > 0 && round > 0 && round%cfg.ControllerKillEvery == 0 {
			nc := fleet.New(fleetSoakControllerConfig(cfg.Seed+int64(round), reg), ct)
			rs, err := takeOver(&jl, cfg.Dir, journalOpts, nc)
			if err != nil {
				return rep, fmt.Errorf("fleet soak: controller recovery: %w", err)
			}
			if rs.Workers != len(names) {
				return rep, fmt.Errorf("fleet soak: recovery found %d workers, want %d", rs.Workers, len(names))
			}
			nc.Tick()
			cmu.Lock()
			cur = nc
			cmu.Unlock()
			rep.ControllerRecoveries++
		}

		c := getCtl()
		switch rng.next() % 8 {
		case 0: // SIGKILL a worker (at most one down at a time)
			if killed == "" {
				killed = pick(parted)
				gt.set(killed, parted)
				lt.Kill(killed)
				rep.Kills++
			}
		case 1: // restart the killed worker, sometimes with its state wiped
			if killed != "" {
				lt.Restart(killed, rng.next()%2 == 0)
				_ = c.Join(killed, killed) // announce; failures retry via Tick probes
				killed = ""
				gt.set(killed, parted)
				rep.Restarts++
			}
		case 2: // one-way partition (requests land, replies are lost)
			if parted == "" {
				parted = pick(killed)
				gt.set(killed, parted)
				part.Isolate(parted, chaos.NetOneWay)
				rep.Partitions++
			}
		case 3: // heal the partition
			if parted != "" {
				part.Heal(parted)
				parted = ""
				gt.set(killed, parted)
				rep.Heals++
			}
		case 4, 5: // start the next rolling deploy
			if rolloutSettled(c.RolloutStatus()) {
				sl := slots[version%len(slots)]
				if err := c.Deploy(sl, fleetSrc(version)); err == nil {
					rep.Deploys++
				}
				version++
			}
		}

		// Drive: a few rollout steps, then a maintenance tick (probes down
		// workers, reconciles recovering ones).
		for i := 0; i < 6; i++ {
			if done, _ := c.Step(); done {
				break
			}
		}
		c.Tick()

		// Tally each rollout's outcome exactly once.
		if r := c.RolloutStatus(); r != nil && rolloutSettled(r) {
			key := fmt.Sprintf("%s#%d", r.Slot, r.Gen)
			if !counted[key] {
				counted[key] = true
				if r.Phase == fleet.PhaseDone {
					rep.RolloutsDone++
				} else {
					rep.RolloutsFailed++
				}
			}
		}

		st := c.FleetStatus()

		// Audit: the catalog never blesses a divergent or broken source.
		for _, cs := range st.Catalog {
			if !strings.HasPrefix(cs.Src, "pass:") {
				return rep, fmt.Errorf("fleet soak: round %d: catalog blessed %q for %s", round, cs.Src, cs.Name)
			}
		}

		// Audit: a fan-out is never dropped while a reachable worker holds
		// the program, every round, regardless of chaos.
		for _, cs := range st.Catalog {
			tr, err := trafficAudit(c, cs.Name, cfg.TrafficPerRound)
			rep.Sent += tr.Sent
			rep.Rerouted += tr.Rerouted
			rep.Dropped += tr.Dropped
			if err != nil {
				return rep, fmt.Errorf("fleet soak: round %d: %w", round, err)
			}
		}
		if err := getPumpErr(); err != nil {
			return rep, fmt.Errorf("fleet soak: round %d: %w", round, err)
		}

		// Audit: no routable replica serves a divergent verdict once the
		// rollout has settled and reconcile has run. Replicas the controller
		// does not route to are pending repair and exempt until quiesce.
		if rolloutSettled(st.Rollout) {
			healthy := map[string]bool{}
			for _, w := range st.Workers {
				healthy[w.Name] = w.Health == fleet.Healthy
			}
			for _, pv := range st.Placements {
				for _, name := range pv.Replicas {
					if !healthy[name] {
						continue
					}
					if _, err := serveVerdict(lt, name, pv.Slot); err != nil {
						return rep, fmt.Errorf("fleet soak: round %d: %w", round, err)
					}
				}
			}
		}
	}

	// Quiesce fault-free: heal everything and let the control plane converge.
	gate.set(false)
	c := getCtl()
	if parted != "" {
		part.Heal(parted)
		parted = ""
		rep.Heals++
	}
	if killed != "" {
		lt.Restart(killed, rng.next()%2 == 0)
		_ = c.Join(killed, killed)
		killed = ""
		rep.Restarts++
	}
	gt.set(killed, parted)
	drive(c, 400)
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.Tick()
		st := c.FleetStatus()
		settled := rolloutSettled(st.Rollout)
		for _, w := range st.Workers {
			if w.Health != fleet.Healthy {
				// Re-announce, as merlind's announce loop does: a suspect
				// worker that holds no replica is sent no traffic, so no RPC
				// would ever clear it.
				settled = false
				_ = c.Join(w.Name, w.Name)
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("fleet soak: fleet did not quiesce: %v", st.Lines())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Final audits on the quiesced fleet.
	st := c.FleetStatus()
	for _, w := range st.Workers {
		if w.Health != fleet.Healthy {
			return rep, fmt.Errorf("fleet soak: worker %s ended %s", w.Name, w.Health)
		}
	}
	for _, cs := range st.Catalog {
		holders := c.Placements()[cs.Name]
		var want uint64
		for i, name := range holders {
			insns, err := serveVerdict(lt, name, cs.Name)
			if err != nil {
				return rep, fmt.Errorf("fleet soak: final: %w", err)
			}
			if i == 0 {
				want = insns
			} else if insns != want {
				return rep, fmt.Errorf("fleet soak: fleet not uniform for %s: %s serves %d insns, %s serves %d",
					cs.Name, name, insns, holders[0], want)
			}
		}
	}

	// Audit: the journal replays to the observed fleet state. A cold
	// controller recovered from the journal must reconcile the live fleet
	// with zero corrective pushes and route traffic to every slot.
	c.Flush()
	c2 := fleet.New(fleetSoakControllerConfig(cfg.Seed+7, reg), ct)
	rs, err := takeOver(&jl, cfg.Dir, journalOpts, c2)
	if err != nil {
		return rep, fmt.Errorf("fleet soak: replay audit recovery: %w", err)
	}
	if rs.Workers != len(names) || rs.Slots != len(slots) {
		return rep, fmt.Errorf("fleet soak: replay audit recovered %d workers / %d slots, want %d / %d",
			rs.Workers, rs.Slots, len(names), len(slots))
	}
	c2.Tick()
	for _, ev := range c2.Events() {
		if ev.Kind == fleet.EventReconciled {
			return rep, fmt.Errorf("fleet soak: journal drifted from observed state: %s", ev.String())
		}
	}
	for _, sl := range slots {
		tr := c2.Traffic(sl, 32)
		rep.Sent += tr.Sent
		rep.Rerouted += tr.Rerouted
		if tr.Dropped != 0 {
			return rep, fmt.Errorf("fleet soak: recovered controller dropped %d packets for %s", tr.Dropped, sl)
		}
	}

	rep.Sent += int(pumpSent.Load())
	rep.Rerouted += int(pumpRerouted.Load())
	rep.Dropped += int(pumpDropped.Load())
	if err := getPumpErr(); err != nil {
		return rep, fmt.Errorf("fleet soak: %w", err)
	}
	ns := ct.Stats()
	rep.NetRPCs = ns.RPCs
	rep.NetFaults = ns.Injected()
	return rep, nil
}

// serveVerdict serves one packet on a worker's live program, failing on any
// verdict other than XDP_PASS — a divergent (drop) program leaking through
// a rollout is exactly what this catches — and returns the instruction
// count, the observable that distinguishes fleet versions.
// takeOver is a controller crash: the dying controller's journal is closed
// and reopened, and c recovers from it — the state dir is all that survives.
// *jl becomes the reopened journal.
func takeOver(jl **journal.Log, dir string, o journal.Options, c *fleet.Controller) (fleet.RecoverStats, error) {
	if err := (*jl).Close(); err != nil {
		return fleet.RecoverStats{}, err
	}
	j, err := journal.OpenWith(dir, o)
	if err != nil {
		return fleet.RecoverStats{}, err
	}
	*jl = j
	c.AttachJournal(j)
	return c.Recover()
}

func serveVerdict(lt *fleet.LocalTransport, worker, slot string) (uint64, error) {
	pkt := make([]byte, 64)
	rv, stats, err := lt.Manager(worker).Serve(slot, vm.BuildXDPContext(len(pkt)), pkt)
	if err != nil {
		return 0, fmt.Errorf("serve %s on %s: %w", slot, worker, err)
	}
	if rv != 2 {
		return 0, fmt.Errorf("worker %s serves verdict %d for %s — a divergent program is live", worker, rv, slot)
	}
	return stats.Instructions, nil
}
