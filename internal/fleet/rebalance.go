package fleet

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// The rebalancer repairs under-replicated slots: when a replica goes down
// (or leaves), it re-deploys the blessed catalog version onto a new worker
// chosen by the same ring walk that made the original placement, then swaps
// the placement over. A repair steps the same gate a rollout does (gate.go)
// — a target already holding an incumbent pays the full shadow→canary gate and
// a plain (never force) promote; only a target with no incumbent at all
// bootstraps live directly, exactly like reconcile pushing a blessed version
// at an empty worker. One step per task per Tick, at most RepairConcurrency
// tasks in flight, jittered-backoff retries per task, and a per-slot circuit
// breaker so a flapping worker or a gate-refusing target cannot wedge the
// fleet in a repair loop.

// repairTask is one in-flight repair: re-replicating slot onto worker.
type repairTask struct {
	slot, worker, src string
	fleetGen          int
	gate
	fails     int // transport-level retries consumed
	steps     int
	notBefore time.Time // retry backoff gate
	started   time.Time
}

// repairBreaker is the per-slot circuit breaker over abandoned repairs.
type repairBreaker struct {
	fails     int // consecutive abandoned repairs
	cooldown  time.Duration
	openUntil time.Time
}

// rebalance runs one repair pass. Caller holds stepMu (it mutates the same
// worker/slot state the rollout machine does); never called with mu held.
func (c *Controller) rebalance() {
	c.mu.Lock()
	c.scanRepairsLocked()
	for len(c.repairs) < c.cfg.RepairConcurrency && len(c.repairQ) > 0 {
		t := c.repairQ[0]
		c.repairQ = c.repairQ[1:]
		if _, busy := c.repairs[t.slot]; busy {
			continue
		}
		c.repairs[t.slot] = t
	}
	tasks := make([]*repairTask, 0, len(c.repairs))
	for _, t := range c.repairs {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].slot < tasks[j].slot })
	c.mu.Unlock()

	for _, t := range tasks {
		c.repairStep(t)
	}
}

// scanRepairsLocked enqueues one repair per under-replicated slot.
func (c *Controller) scanRepairsLocked() {
	now := c.cfg.Now()
	queued := map[string]bool{}
	for _, t := range c.repairQ {
		queued[t.slot] = true
	}
	for _, slot := range c.catalogSlotsLocked() {
		if c.rollout != nil && !c.rollout.terminal() && c.rollout.Slot == slot {
			continue // the rollout owns this slot
		}
		pl := c.placements[slot]
		if pl == nil {
			// A slot recovered from a journal written before every slot had a
			// placement: assign one now, and reconcile drains the copies off
			// the workers it did not pick.
			pl = c.assignPlacementLocked(slot)
		}
		if queued[slot] || c.repairs[slot] != nil {
			continue
		}
		if bk := c.repairBk[slot]; bk != nil && now.Before(bk.openUntil) {
			continue
		}
		if c.availReplicasLocked(pl) >= c.repairWantLocked() {
			continue
		}
		target := c.repairTargetLocked(slot, pl)
		if target == "" {
			continue // nowhere to repair to; under_replicated stays raised
		}
		cat := c.catalog[slot]
		t := &repairTask{slot: slot, worker: target, src: cat.Src,
			fleetGen: cat.Gen, gate: gate{Phase: PhaseDeploy}, started: now}
		c.repairQ = append(c.repairQ, t)
		if c.met != nil {
			c.met.repairsStarted.Inc()
		}
		c.eventLocked(Event{Kind: EventRepair, Slot: slot, Worker: target,
			Detail: fmt.Sprintf("under-replicated (%d/%d avail) → repairing onto %s",
				c.availReplicasLocked(pl), c.repairWantLocked(), target)})
	}
}

// repairWantLocked is the effective replication target: R, capped by
// membership.
func (c *Controller) repairWantLocked() int {
	want := c.cfg.Replication
	if n := len(c.workers); want > n {
		want = n
	}
	return want
}

// repairTargetLocked walks the ring from hash(slot) and returns the first
// eligible worker that is not already a replica — the same walk that made
// the placement, so repaired placements stay ring-affine.
func (c *Controller) repairTargetLocked(slot string, pl *Placement) string {
	members := c.workerNamesLocked(func(*worker) bool { return true })
	r := buildRing(members, c.cfg.VNodes)
	for _, n := range r.lookup(slot, len(members)) {
		if slices.Contains(pl.Replicas, n) {
			continue
		}
		if c.workers[n].health.eligible() {
			return n
		}
	}
	return ""
}

func (c *Controller) catalogSlotsLocked() []string {
	slots := make([]string, 0, len(c.catalog))
	for n := range c.catalog {
		slots = append(slots, n)
	}
	sort.Strings(slots)
	return slots
}

// repairStep advances one active repair by a single action. Caller holds
// stepMu; RPCs run without mu.
func (c *Controller) repairStep(t *repairTask) {
	c.mu.Lock()
	now := c.cfg.Now()
	if now.Before(t.notBefore) {
		c.mu.Unlock()
		return
	}
	pl := c.placements[t.slot]
	cat := c.catalog[t.slot]
	w := c.workers[t.worker]
	switch {
	case cat == nil || cat.Gen != t.fleetGen:
		c.dropRepairLocked(t, "catalog moved on")
	case pl == nil:
		c.dropRepairLocked(t, "placement vanished")
	case c.rollout != nil && !c.rollout.terminal() && c.rollout.Slot == t.slot:
		c.dropRepairLocked(t, "rollout took the slot")
	case c.availReplicasLocked(pl) >= c.repairWantLocked():
		c.dropRepairLocked(t, "replicas recovered on their own")
	case w == nil || w.health == Down:
		c.failRepairLocked(t, "target went down")
	}
	dropped := c.repairs[t.slot] != t
	abortStaged := dropped && t.Cand != 0 && w != nil && w.health != Down
	g := t.gate
	if !dropped {
		t.steps++
	}
	c.mu.Unlock()
	if dropped {
		if abortStaged {
			// Best effort: withdraw the candidate the dead repair staged.
			_, _ = c.rpc(t.worker, "abort "+t.slot, false)
		}
		return
	}

	out, liveGen, why := c.gateStep(t.worker, t.slot, t.src, &g)
	c.mu.Lock()
	defer c.mu.Unlock()
	t.gate = g
	switch out {
	case gateBootstrapped:
		// No incumbent on the target: the blessed version went straight to
		// live, the same trust reconcile extends when pushing the catalog at
		// an empty worker.
		c.completeRepairLocked(t, liveGen, "bootstrap")
	case gatePromoted:
		c.completeRepairLocked(t, liveGen, "gated")
	case gateRefused:
		// A gate refusing the blessed version (its incumbent genuinely
		// disagrees) is never forced: abandon, and let the breaker count it.
		c.failRepairLocked(t, why)
	case gateUnreachable:
		c.retryRepairLocked(t, why)
	}
}

// completeRepairLocked lands a finished repair: record the install, swap the
// repaired-away replica out of the placement, reset the slot's breaker. If
// every original replica recovered while the repair ran, the new copy is
// surplus — the placement stays put and the target is demoted to Recovering
// so the next reconcile drains the extra copy.
func (c *Controller) completeRepairLocked(t *repairTask, liveGen int, mode string) {
	delete(c.repairs, t.slot)
	delete(c.repairBk, t.slot)
	c.setInstalledLocked(t.worker, t.slot, t.fleetGen, liveGen, true)

	pl := c.placements[t.slot]
	removed := ""
	var reps []string
	for _, rn := range pl.Replicas {
		w := c.workers[rn]
		avail := w != nil && (w.health.eligible() || w.health == Recovering)
		if removed == "" && !avail {
			removed = rn
			continue
		}
		reps = append(reps, rn)
	}
	if removed == "" && len(pl.Replicas) < c.repairWantLocked() {
		// Nobody to swap out — the placement is short (a departed worker was
		// scrubbed from it); the new copy grows it back toward R.
		reps = append(reps, t.worker)
		c.setPlacementLocked(t.slot, reps,
			fmt.Sprintf("re-replicated onto %s (%s)", t.worker, mode))
		c.eventLocked(Event{Kind: EventRepair, Slot: t.slot, Worker: t.worker,
			Detail: fmt.Sprintf("re-replicated onto %s (%s, live=gen%d, %d steps)",
				t.worker, mode, liveGen, t.steps)})
	} else if removed == "" {
		if w := c.workers[t.worker]; w != nil && w.health == Healthy {
			c.setHealthLocked(w, Recovering, "surplus repair copy awaiting drain")
		}
		c.eventLocked(Event{Kind: EventRepair, Slot: t.slot, Worker: t.worker,
			Detail: fmt.Sprintf("repair (%s) finished but all replicas recovered; %s will drain", mode, t.worker)})
	} else {
		reps = append(reps, t.worker)
		c.setPlacementLocked(t.slot, reps,
			fmt.Sprintf("repaired: %s → %s (%s)", removed, t.worker, mode))
		c.eventLocked(Event{Kind: EventRepair, Slot: t.slot, Worker: t.worker,
			Detail: fmt.Sprintf("re-replicated onto %s (%s, live=gen%d, %d steps)",
				t.worker, mode, liveGen, t.steps)})
	}
	if c.met != nil {
		c.met.repairCompleted(mode)
		c.met.repairSteps.Observe(uint64(t.steps))
		if d := c.cfg.Now().Sub(t.started); d > 0 {
			c.met.repairMillis.Observe(uint64(d.Milliseconds()))
		}
	}
	c.gaugesLocked()
}

// retryRepairLocked backs the task off with doubling jitter; too many
// retries abandon it.
func (c *Controller) retryRepairLocked(t *repairTask, why string) {
	t.fails++
	if t.fails > c.cfg.RepairMaxFails {
		c.failRepairLocked(t, why)
		return
	}
	d := c.cfg.RepairBackoff << (t.fails - 1)
	if d > c.cfg.RepairBackoffMax {
		d = c.cfg.RepairBackoffMax
	}
	t.notBefore = c.cfg.Now().Add(c.jitterLocked(d))
}

// failRepairLocked abandons the task and advances the slot's repair breaker.
// The scan re-enqueues a fresh repair (possibly onto a different target)
// once the breaker allows.
func (c *Controller) failRepairLocked(t *repairTask, why string) {
	delete(c.repairs, t.slot)
	if c.met != nil {
		c.met.repairsFailed.Inc()
	}
	bk := c.repairBk[t.slot]
	if bk == nil {
		bk = &repairBreaker{}
		c.repairBk[t.slot] = bk
	}
	bk.fails++
	c.eventLocked(Event{Kind: EventRepair, Slot: t.slot, Worker: t.worker,
		Detail: fmt.Sprintf("repair abandoned: %s (consecutive failures %d)", why, bk.fails)})
	if bk.fails >= c.cfg.RepairBreakerAfter {
		if bk.cooldown == 0 {
			bk.cooldown = c.cfg.RepairBackoff * 4
		} else {
			bk.cooldown *= 2
		}
		if bk.cooldown > c.cfg.RepairBackoffMax {
			bk.cooldown = c.cfg.RepairBackoffMax
		}
		bk.openUntil = c.cfg.Now().Add(c.jitterLocked(bk.cooldown))
		if c.met != nil {
			c.met.repairBreakerOpens.Inc()
		}
		c.eventLocked(Event{Kind: EventRepair, Slot: t.slot,
			Detail: fmt.Sprintf("repair breaker open for %s", bk.cooldown)})
	}
}

// dropRepairLocked discards a task that is no longer needed or valid; not a
// failure, so the breaker is untouched.
func (c *Controller) dropRepairLocked(t *repairTask, why string) {
	if c.repairs[t.slot] == t {
		delete(c.repairs, t.slot)
	}
	c.eventLocked(Event{Kind: EventRepair, Slot: t.slot, Worker: t.worker,
		Detail: "repair dropped: " + why})
}

// cancelRepairsForSlotLocked drops queued and active repairs for a slot — a
// new rollout owns it now.
func (c *Controller) cancelRepairsForSlotLocked(slot, why string) {
	if t := c.repairs[slot]; t != nil {
		c.dropRepairLocked(t, why)
	}
	keep := c.repairQ[:0]
	for _, t := range c.repairQ {
		if t.slot != slot {
			keep = append(keep, t)
		}
	}
	c.repairQ = keep
}

// dropRepairsForWorkerLocked drops repairs targeting a departed worker.
func (c *Controller) dropRepairsForWorkerLocked(name string) {
	for slot, t := range c.repairs {
		if t.worker == name {
			delete(c.repairs, slot)
		}
	}
	keep := c.repairQ[:0]
	for _, t := range c.repairQ {
		if t.worker != name {
			keep = append(keep, t)
		}
	}
	c.repairQ = keep
}
