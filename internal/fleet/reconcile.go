package fleet

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"merlin/internal/lifecycle"
)

// The reconciler is one level-triggered loop. Desired state is the catalog's
// blessed version of each slot (and, on the replicas an in-flight rollout has
// promoted, its candidate) times the placements; observed state is each
// worker's `status` reply, read once per pass. A pass takes at most one
// action per (worker, slot):
//
//   - join: a worker admitted to an under-replicated slot takes one gate step
//     (gate.go) — or one restore, over a copy the controller installed itself;
//   - restore: a placed replica running anything but the blessed version
//     gets it without a gate (deploy, then promote force);
//   - withdraw: a candidate nothing wants any more is taken back — abort when
//     staged, the worker's own rollback when promoted, which puts back the
//     exact incumbent the candidate was staged over;
//   - drain: a copy on a worker the placement does not name is removed.
//
// The policy is the same everywhere: the gate admits — a new version, or a
// worker joining a slot over a foreign incumbent, pays the gate and is never
// forced; only an empty slot bootstraps — and membership is held by force.
// Worker health stays a transport matter: no per-slot decision takes a worker
// out of any slot's traffic pool.

// join is a repair in flight: worker is being admitted to slot, and the
// placement swaps when the install lands. Phase failed means the gate
// refused; the worker's copy is drained before it is admitted again. Joins
// are not journaled: a recovered controller recomputes under-replication.
type join struct {
	worker, src string
	gen, steps  int
	gate
	started time.Time
}

// action is one (worker, slot) step: "join", "restore", or the worker verb
// "rollback", "abort" or "drain".
type action struct {
	verb, slot, src, why string
	gen                  int
}

// Tick runs one pass of the loop and republishes gauges. Call it
// periodically; it is also safe to call in a tight loop.
func (c *Controller) Tick() {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	c.pass()
	c.mu.Lock()
	c.jl.Tick() // a degraded journal's re-attachment probe
	c.jl.Collect()
	c.gaugesLocked()
	c.mu.Unlock()
}

// pass reconciles every worker that is not down (for a down worker whose
// breaker cooldown expired, the status read is the half-open probe), then
// withdraws placements nothing blesses or rolls out: a failed bootstrap's, or
// one a crash left without its catalog entry. Caller holds stepMu.
func (c *Controller) pass() {
	c.mu.Lock()
	now := c.cfg.Now()
	names := c.workerNamesLocked(func(w *worker) bool { return w.health != Down || !now.Before(w.openUntil) })
	c.mu.Unlock()
	for _, n := range names {
		_ = c.reconcile(n) // a failed read feeds the health machine
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range sortedKeys(c.placements) {
		if c.catalog[slot] == nil && !c.rollout.owns(slot) {
			c.dropPlacementLocked(slot, "nothing blesses the slot")
		}
	}
}

// reconcile reads one worker's status, converges it and admits it to routing
// if it was recovering. A failed action is retried by the next pass, which
// reads the worker again.
func (c *Controller) reconcile(name string) error {
	if c.met != nil {
		c.met.reconciles.Inc()
	}
	lines, err := c.rpc(name, "status", true)
	if err != nil {
		return err
	}
	live := map[string]lifecycle.SlotStatus{}
	for _, l := range lines {
		if st, perr := lifecycle.ParseSlotStatus(l); perr == nil {
			live[st.Slot] = st
		}
	}

	c.mu.Lock()
	slots := map[string]bool{}
	for s := range c.catalog {
		slots[s] = true
	}
	for s := range live {
		slots[s] = true
	}
	for s := range c.installed[name] {
		slots[s] = true
	}
	var acts []action
	for _, s := range sortedKeys(slots) {
		st, present := live[s]
		if a := c.planLocked(name, s, st, present); a.verb != "" {
			acts = append(acts, a)
		}
	}
	c.mu.Unlock()

	for _, a := range acts {
		c.act(name, a)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[name]; w != nil && w.health == Recovering {
		c.setHealthLocked(w, Healthy, "reconciled against catalog")
	}
	return nil
}

// planLocked compares what worker name runs in slot with what it should run
// and picks at most one action. Bookkeeping that needs no RPC is settled
// here.
func (c *Controller) planLocked(name, slot string, st lifecycle.SlotStatus, present bool) action {
	cat, r := c.catalog[slot], c.rollout
	inst, hasInst := c.installed[name][slot]
	running := func(fleetGen int) bool {
		return present && hasInst && inst.FleetGen == fleetGen && st.LiveGeneration == inst.LocalGen
	}
	if r.owns(slot) && (r.Idx < len(r.Order) && r.Order[r.Idx] == name ||
		slices.Contains(r.Promoted, name) && running(r.Gen)) {
		return action{} // the rollout's gate is working here, or has finished
	}
	if j := c.joinLocked(name, slot); j != nil {
		switch {
		case j.Phase == PhaseDeploy && running(inst.FleetGen):
			// The worker was a replica before: the fleet blessed what it
			// holds, so the join takes the current version by force.
			return action{verb: "restore", slot: slot, src: j.src, gen: j.gen, why: "rejoin"}
		case j.Phase != PhaseFailed:
			return action{verb: "join", slot: slot}
		case present:
			return action{verb: "drain", slot: slot, why: "join refused by the gate"}
		}
		delete(c.joins, slot)
	}
	switch {
	case cat == nil || !slices.Contains(c.placements[slot].Replicas, name):
		// Not desired here. Drain only what the controller manages: a
		// catalog slot, the last rollout's slot, or a copy it installed.
		if present && (cat != nil || hasInst || r != nil && r.Slot == slot) {
			return action{verb: "drain", slot: slot, why: "not a replica"}
		}
		if !present && hasInst {
			c.deleteInstalledLocked(name, slot)
		}
	case !present:
		return action{verb: "restore", slot: slot, src: cat.Src, gen: cat.Gen, why: "slot missing"}
	case running(cat.Gen):
		if st.CandidateGeneration != 0 {
			return action{verb: "abort", slot: slot, why: fmt.Sprintf("stray candidate gen%d aborted", st.CandidateGeneration)}
		}
	case running(inst.FleetGen) && inst.FleetGen > cat.Gen:
		return action{verb: "rollback", slot: slot, gen: cat.Gen, why: fmt.Sprintf("withdrawn fleet gen%d", inst.FleetGen)}
	default:
		return action{verb: "restore", slot: slot, src: cat.Src, gen: cat.Gen,
			why: fmt.Sprintf("live=gen%d installed=%+v catalog=gen%d", st.LiveGeneration, inst, cat.Gen)}
	}
	return action{}
}

// act performs one planned action and records what the worker now runs. A
// transport failure records nothing: the health machine has it.
func (c *Controller) act(name string, a action) {
	if a.verb == "join" {
		c.stepJoin(name, a.slot)
		return
	}
	line := a.verb + " " + a.slot
	if a.verb == "restore" {
		line = "deploy " + a.slot + " " + a.src
	}
	lines, err := c.rpc(name, line, false)
	if rep, ok := parseDeployReply(lines); a.verb == "restore" && err == nil && ok && rep.candGen != 0 {
		// An occupied slot staged the blessed version as a candidate.
		lines, err = c.rpc(name, "promote "+a.slot+" force", false)
	}
	last, ok := ReplyOK(lines)
	if err != nil || !ok && a.verb != "rollback" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := Event{Kind: EventReconciled, Worker: name, Slot: a.slot, Detail: a.why}
	j := c.joins[a.slot]
	switch {
	case a.verb == "drain":
		c.deleteInstalledLocked(name, a.slot)
		if j != nil && j.worker == name {
			delete(c.joins, a.slot)
			if c.met != nil {
				c.met.repairBreakerOpens.Inc()
			}
		}
		if c.met != nil {
			c.met.drains.Inc()
		}
		ev.Kind, ev.Detail = EventDrained, "copy drained: "+a.why
	case a.verb == "abort":
	case !ok:
		// A rollback with nothing to roll back to: forget the record, and
		// the next pass restores the blessed version by force.
		c.deleteInstalledLocked(name, a.slot)
		ev.Detail += ": rollback refused (" + lastLine(lines) + ")"
	case j != nil && j.worker == name:
		j.steps++
		c.landLocked(a.slot, j, parseLiveGen(last), "restore")
		return
	default:
		c.setInstalledLocked(name, a.slot, a.gen, parseLiveGen(last))
		ev.Detail += fmt.Sprintf(" → fleet gen%d (%s)", a.gen, last)
	}
	c.eventLocked(ev)
}

// joinLocked returns slot's join when worker name is its target. It first
// drops a join that no longer applies, then admits name when the slot has
// fewer than R replicas that are not down and name is the first worker on
// the slot's ring walk that is neither down nor a replica — the walk that
// made the placement, so repaired placements stay ring-affine.
func (c *Controller) joinLocked(name, slot string) *join {
	cat := c.catalog[slot]
	if cat == nil {
		return nil
	}
	pl := c.placements[slot]
	if pl == nil {
		// A slot recovered from a journal written before every slot had a
		// placement: assign one, and the loop drains the other copies.
		pl = c.assignPlacementLocked(slot)
	}
	owned, want, avail := c.rollout.owns(slot), c.repairWantLocked(), c.availReplicasLocked(pl)
	if j := c.joins[slot]; j != nil {
		w := c.workers[j.worker]
		down := w == nil || w.health == Down
		if !down && !owned && j.gen == cat.Gen && (j.Phase == PhaseFailed || avail < want) {
			if j.worker == name {
				return j
			}
			return nil
		}
		delete(c.joins, slot)
		if down && c.met != nil {
			c.met.repairsFailed.Inc()
		}
		c.eventLocked(Event{Kind: EventRepair, Slot: slot, Worker: j.worker,
			Detail: fmt.Sprintf("join dropped (target down %v, %d/%d avail)", down, avail, want)})
	}
	if owned || avail >= want || c.joinTargetLocked(slot, pl) != name {
		return nil
	}
	j := &join{worker: name, src: cat.Src, gen: cat.Gen, gate: gate{Phase: PhaseDeploy}, started: c.cfg.Now()}
	c.joins[slot] = j
	if c.met != nil {
		c.met.repairsStarted.Inc()
	}
	c.eventLocked(Event{Kind: EventRepair, Slot: slot, Worker: name,
		Detail: fmt.Sprintf("under-replicated (%d/%d avail) → joining %s", avail, want, name)})
	return j
}

// joinTargetLocked walks the ring from hash(slot) and returns the first
// worker that is neither down nor already a replica.
func (c *Controller) joinTargetLocked(slot string, pl *Placement) string {
	members := c.workerNamesLocked(func(*worker) bool { return true })
	for _, n := range buildRing(members, c.cfg.VNodes).lookup(slot, len(members)) {
		if !slices.Contains(pl.Replicas, n) && c.workers[n].health != Down {
			return n
		}
	}
	return ""
}

// stepJoin advances slot's join on worker name by one gate step.
func (c *Controller) stepJoin(name, slot string) {
	c.mu.Lock()
	j := c.joins[slot]
	j.steps++
	g := j.gate
	c.mu.Unlock()
	out, liveGen, why := c.gateStep(name, slot, j.src, &g)
	c.mu.Lock()
	defer c.mu.Unlock()
	j.gate = g
	switch out {
	case gateBootstrapped:
		c.landLocked(slot, j, liveGen, "bootstrap")
	case gatePromoted:
		c.landLocked(slot, j, liveGen, "gated")
	case gateRefused:
		j.Phase = PhaseFailed // never forced: the copy drains, and the worker joins again empty
		if c.met != nil {
			c.met.repairsFailed.Inc()
		}
		c.eventLocked(Event{Kind: EventRepair, Slot: slot, Worker: name, Detail: "join refused: " + why})
	}
}

// landLocked records a finished join and swaps the placement: the new
// replica replaces a down one, or grows a short placement back toward R. If
// every replica recovered meanwhile the copy is surplus and the next pass
// drains it.
func (c *Controller) landLocked(slot string, j *join, liveGen int, mode string) {
	delete(c.joins, slot)
	c.setInstalledLocked(j.worker, slot, j.gen, liveGen)
	reps := slices.Clone(c.placements[slot].Replicas)
	detail := fmt.Sprintf("%s joined (%s, live=gen%d, %d steps)", j.worker, mode, liveGen, j.steps)
	if i := slices.IndexFunc(reps, func(n string) bool { w := c.workers[n]; return w == nil || w.health == Down }); i >= 0 {
		why := fmt.Sprintf("repaired: %s → %s (%s)", reps[i], j.worker, mode)
		c.setPlacementLocked(slot, append(slices.Delete(reps, i, i+1), j.worker), why)
	} else if len(reps) < c.repairWantLocked() {
		c.setPlacementLocked(slot, append(reps, j.worker), fmt.Sprintf("re-replicated onto %s (%s)", j.worker, mode))
	} else {
		detail += "; every replica recovered, the copy will drain"
	}
	c.eventLocked(Event{Kind: EventRepair, Slot: slot, Worker: j.worker, Detail: detail})
	if c.met != nil {
		c.met.repairsDone[mode].Inc()
		c.met.repairSteps.Observe(uint64(j.steps))
		if d := c.cfg.Now().Sub(j.started); d > 0 {
			c.met.repairMillis.Observe(uint64(d.Milliseconds()))
		}
	}
}

// repairWantLocked is the effective replication target: R, capped by
// membership.
func (c *Controller) repairWantLocked() int {
	return min(c.cfg.Replication, len(c.workers))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
