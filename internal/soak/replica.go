// The replica-loss soak: where RunFleet churns a whole fleet through
// rollouts, this one exercises the placement layer specifically. A token-armed controller places
// every slot on R workers, then the harness takes a replica away twice — once
// by SIGKILL, once by one-way partition — while traffic hammers every slot
// from the driver and a background pump. The invariants audited are the
// placement tier's promises:
//
//  1. zero drops, unconditionally: with R=2 and one victim at a time, every
//     slot keeps a continuously-reachable replica, so failover must absorb
//     every fan-out for the whole outage;
//  2. self-healing: the rebalancer re-replicates every affected slot onto a
//     surviving worker through the normal gated pipeline (the completion
//     counters are mode-labeled; there is no ungated path to count);
//  3. rejoin hygiene: a healed victim's stale copies are drained, never
//     silently served;
//  4. durability: a SIGKILLed controller recovers the exact placement map
//     from its journal and routes immediately.
package soak

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/fleet"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
)

// ReplicaConfig parameterizes one replica-loss soak run.
type ReplicaConfig struct {
	// Dir hosts the controller journal (required).
	Dir string
	// Seed drives controller jitter and victim choice.
	Seed int64
	// Workers is the fleet size (default 4, minimum 3: one victim must leave
	// both a surviving replica and a repair target).
	Workers int
	// Replication is the per-slot replica count (default 2).
	Replication int
	// Token is the shared control secret; every controller→worker RPC and the
	// whole soak runs authenticated (default "soak-secret").
	Token string
	// HealBudget bounds each phase's convergence wait (default 20s).
	HealBudget time.Duration
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.Workers < 3 {
		c.Workers = 4
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Token == "" {
		c.Token = "soak-secret"
	}
	if c.HealBudget <= 0 {
		c.HealBudget = 20 * time.Second
	}
	return c
}

// ReplicaReport is what one replica-loss soak observed.
type ReplicaReport struct {
	Slots                int
	Kills, Partitions    int
	Sent, Dropped        int
	Failovers            int64 // traffic chunks served by a non-primary replica
	RepairsBootstrap     int64 // repairs completed onto empty targets
	RepairsGated         int64 // repairs that paid the full canary gate
	Drains               int64 // stale copies drained off rejoined victims
	AuthFailures         int64 // must stay 0: every RPC carries the token
	ControllerRecoveries int
}

func (r *ReplicaReport) String() string {
	return fmt.Sprintf("slots=%d kills=%d partitions=%d sent=%d dropped=%d "+
		"failovers=%d repairs_bootstrap=%d repairs_gated=%d drains=%d "+
		"auth_failures=%d controller_recoveries=%d",
		r.Slots, r.Kills, r.Partitions, r.Sent, r.Dropped,
		r.Failovers, r.RepairsBootstrap, r.RepairsGated, r.Drains,
		r.AuthFailures, r.ControllerRecoveries)
}

// replicaControllerConfig tunes one controller incarnation: placement on,
// authenticated, repair pacing fast enough to converge inside a test budget.
func replicaControllerConfig(cfg ReplicaConfig, reg *metrics.Registry) fleet.Config {
	return fleet.Config{
		RPCTimeout: time.Second,
		RetryBase:  time.Millisecond, RetryMax: 20 * time.Millisecond,
		BreakerBase: 5 * time.Millisecond, BreakerMax: 100 * time.Millisecond,
		TrafficBatch: 4, VNodes: 64, CompactEvery: 64,
		Replication:   cfg.Replication,
		AuthToken:     cfg.Token,
		RepairBackoff: 2 * time.Millisecond, RepairBackoffMax: 50 * time.Millisecond,
		Seed: uint64(cfg.Seed) | 1, Metrics: reg,
	}
}

// RunReplicaLoss executes one seeded replica-loss soak and returns its
// report; any audit violation returns a non-nil error alongside whatever was
// counted so far.
func RunReplicaLoss(cfg ReplicaConfig) (*ReplicaReport, error) {
	cfg = cfg.withDefaults()
	rep := &ReplicaReport{}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("replica soak: Dir is required")
	}

	// The world: N token-armed workers behind a mutable partition layer.
	lt := fleet.NewLocalTransport()
	names := make([]string, 0, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		lt.AddWorker(name, lifecycle.Config{ShadowRuns: 2, CanaryRuns: 2, CycleSlack: 1000})
		lt.SetToken(name, cfg.Token)
		names = append(names, name)
	}
	part := chaos.NewPartition()
	ct := fleet.WithChaos(lt, part)

	reg := metrics.New()
	journalOpts := journal.Options{SegmentBytes: 4096}
	jl, err := journal.OpenWith(cfg.Dir, journalOpts)
	if err != nil {
		return rep, fmt.Errorf("replica soak: open journal: %w", err)
	}
	defer func() {
		if jl != nil {
			jl.Close()
		}
	}()

	ctl := fleet.New(replicaControllerConfig(cfg, reg), ct)
	ctl.AttachJournal(jl)

	var cmu sync.RWMutex
	cur := ctl
	getCtl := func() *fleet.Controller {
		cmu.RLock()
		defer cmu.RUnlock()
		return cur
	}

	for _, name := range names {
		if err := getCtl().Join(name, name); err != nil {
			return rep, fmt.Errorf("replica soak: join %s: %w", name, err)
		}
	}

	// Bootstrap: three slots so each chaos phase has placements both on and
	// off the victim.
	slots := []string{"alpha", "beta", "gamma"}
	rep.Slots = len(slots)
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
			return rep, fmt.Errorf("replica soak: bootstrap %s: %w", sl, err)
		}
		if r := drive(getCtl(), 200); r == nil || r.Phase != fleet.PhaseDone {
			return rep, fmt.Errorf("replica soak: bootstrap rollout %s = %+v", sl, r)
		}
	}
	for sl, reps := range getCtl().Placements() {
		if len(reps) != cfg.Replication {
			return rep, fmt.Errorf("replica soak: slot %s placed on %v, want %d replicas", sl, reps, cfg.Replication)
		}
	}

	// The pump: background fan-out across every slot while the driver kills
	// and heals, so failover, repair and recovery interleave under -race.
	// Every drop is a violation — a continuously-reachable replica always
	// exists in this soak.
	var pumpSent, pumpDropped atomic.Int64
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
			for _, sl := range slots {
				tr := c.Traffic(sl, 8)
				pumpSent.Add(int64(tr.Sent))
				pumpDropped.Add(int64(tr.Dropped))
				if tr.Dropped != 0 {
					pumpErrMu.Lock()
					if pumpErr == nil {
						pumpErr = fmt.Errorf("pump: dropped %d packets for %s\n  %s",
							tr.Dropped, sl, strings.Join(c.FleetStatus().Lines(), "\n  "))
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

	// driveTraffic fans out on every slot once, asserting zero drops.
	driveTraffic := func(c *fleet.Controller) error {
		for _, sl := range slots {
			tr := c.Traffic(sl, 16)
			rep.Sent += tr.Sent
			rep.Dropped += tr.Dropped
			if tr.Dropped != 0 {
				return fmt.Errorf("dropped %d packets for %s\n  %s",
					tr.Dropped, sl, strings.Join(c.FleetStatus().Lines(), "\n  "))
			}
		}
		return nil
	}

	// healedOff waits until no placement names the victim, every placement is
	// back to full live strength on non-victim workers, and no rollout is in
	// flight — traffic keeps flowing (and keeps being audited) throughout.
	healedOff := func(victim string) error {
		deadline := time.Now().Add(cfg.HealBudget)
		for {
			c := getCtl()
			c.Tick()
			drive(c, 50)
			if err := driveTraffic(c); err != nil {
				return err
			}
			if err := getPumpErr(); err != nil {
				return err
			}
			st := c.FleetStatus()
			converged := len(st.Placements) == len(slots) && rolloutSettled(st.Rollout)
			for _, pv := range st.Placements {
				if len(pv.Replicas) != cfg.Replication || pv.Live != cfg.Replication {
					converged = false
				}
				for _, rn := range pv.Replicas {
					if rn == victim {
						converged = false
					}
				}
			}
			if converged {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet never healed off %s:\n  %s",
					victim, strings.Join(st.Lines(), "\n  "))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// victimFor picks a current replica of the slot to take away.
	victimFor := func(slot string) (string, error) {
		reps := getCtl().Placements()[slot]
		if len(reps) == 0 {
			return "", fmt.Errorf("replica soak: slot %s has no placement", slot)
		}
		return reps[0], nil
	}

	// --- Phase A: SIGKILL one replica mid-traffic. -------------------------
	victimA, err := victimFor(slots[0])
	if err != nil {
		return rep, err
	}
	lt.Kill(victimA)
	rep.Kills++
	if err := healedOff(victimA); err != nil {
		return rep, fmt.Errorf("replica soak: kill phase: %w", err)
	}

	// Heal: restart the victim with its state intact, so its stale copies
	// must be drained — rejoined workers never silently serve what the
	// placement moved away from them.
	lt.Restart(victimA, false)
	if err := getCtl().Join(victimA, victimA); err != nil {
		return rep, fmt.Errorf("replica soak: rejoin %s: %w", victimA, err)
	}
	{
		deadline := time.Now().Add(cfg.HealBudget)
		for {
			c := getCtl()
			c.Tick()
			if err := driveTraffic(c); err != nil {
				return rep, fmt.Errorf("replica soak: rejoin traffic: %w", err)
			}
			healthy := false
			for _, w := range c.FleetStatus().Workers {
				if w.Name == victimA && w.Health == fleet.Healthy {
					healthy = true
				}
			}
			stale := false
			for _, sl := range slots {
				if _, err := lt.Manager(victimA).StatusOf(sl); err == nil {
					if reps := c.Placements()[sl]; !slices.Contains(reps, victimA) {
						stale = true // placed elsewhere yet still held here
					}
				}
			}
			if healthy && !stale {
				break
			}
			if time.Now().After(deadline) {
				return rep, fmt.Errorf("replica soak: %s rejoined but not reconciled (healthy=%v stale=%v)",
					victimA, healthy, stale)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// --- Phase B: one-way partition (requests land, replies vanish). -------
	victimB, err := victimFor(slots[1])
	if err != nil {
		return rep, err
	}
	part.Isolate(victimB, chaos.NetOneWay)
	rep.Partitions++
	if err := healedOff(victimB); err != nil {
		return rep, fmt.Errorf("replica soak: partition phase: %w", err)
	}
	part.Heal(victimB)
	{
		// The partitioned worker was never removed from the fleet: probes
		// re-admit it, reconcile drains whatever the placements moved away.
		deadline := time.Now().Add(cfg.HealBudget)
		for {
			c := getCtl()
			c.Tick()
			if err := driveTraffic(c); err != nil {
				return rep, fmt.Errorf("replica soak: post-heal traffic: %w", err)
			}
			healthy := false
			for _, w := range c.FleetStatus().Workers {
				if w.Name == victimB && w.Health == fleet.Healthy {
					healthy = true
				}
			}
			if healthy {
				break
			}
			if time.Now().After(deadline) {
				return rep, fmt.Errorf("replica soak: %s never re-admitted after heal", victimB)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// --- Phase C: the controller dies; its successor must recover the exact
	// placement map and route immediately. --------------------------------
	getCtl().Flush()
	before := getCtl().Placements()
	nc := fleet.New(replicaControllerConfig(cfg, reg), ct)
	rs, err := takeOver(&jl, cfg.Dir, journalOpts, nc)
	if err != nil {
		return rep, fmt.Errorf("replica soak: controller recovery: %w", err)
	}
	if rs.Workers != len(names) || rs.Placements != len(slots) {
		return rep, fmt.Errorf("replica soak: recovered %d workers / %d placements, want %d / %d",
			rs.Workers, rs.Placements, len(names), len(slots))
	}
	for sl, want := range before {
		got := nc.Placements()[sl]
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return rep, fmt.Errorf("replica soak: placement of %s drifted across recovery: %v != %v", sl, got, want)
		}
	}
	nc.Tick()
	cmu.Lock()
	cur = nc
	cmu.Unlock()
	rep.ControllerRecoveries++
	if err := driveTraffic(nc); err != nil {
		return rep, fmt.Errorf("replica soak: recovered controller: %w", err)
	}

	// --- Final audits. -----------------------------------------------------
	if err := getPumpErr(); err != nil {
		return rep, fmt.Errorf("replica soak: %w", err)
	}
	snap := reg.Snapshot()
	for k, v := range snap {
		switch {
		case strings.HasPrefix(k, "merlin_fleet_repairs_completed_total") && strings.Contains(k, "bootstrap"):
			rep.RepairsBootstrap += v
		case strings.HasPrefix(k, "merlin_fleet_repairs_completed_total") && strings.Contains(k, "gated"):
			rep.RepairsGated += v
		case k == "merlin_fleet_failovers_total":
			rep.Failovers = v
		case k == "merlin_fleet_drains_total":
			rep.Drains = v
		case k == "merlin_fleet_under_replicated":
			if v != 0 {
				return rep, fmt.Errorf("replica soak: %d slots still under-replicated at the end", v)
			}
		}
	}
	// Worker-side auth refusals live in each worker's registry.
	for _, name := range names {
		rep.AuthFailures += lt.AuthFailures(name)
	}
	if rep.AuthFailures != 0 {
		return rep, fmt.Errorf("replica soak: %d authenticated RPCs were refused", rep.AuthFailures)
	}
	// Both outages forced at least one repair each, and every completion went
	// through the pipeline: the two mode labels are the only completion
	// counters that exist — there is no ungated path to have taken.
	if rep.RepairsBootstrap+rep.RepairsGated < 2 {
		return rep, fmt.Errorf("replica soak: only %d repairs completed, want >= 2 (one per outage)",
			rep.RepairsBootstrap+rep.RepairsGated)
	}
	if rep.Failovers == 0 {
		return rep, fmt.Errorf("replica soak: no traffic ever failed over — the outages were not exercised")
	}
	rep.Sent += int(pumpSent.Load())
	rep.Dropped += int(pumpDropped.Load())
	return rep, nil
}
