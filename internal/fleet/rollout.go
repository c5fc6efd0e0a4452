package fleet

import (
	"errors"
	"fmt"
	"sort"
)

// Rollout phases. Forward progress on each worker is its gate's deploy →
// canary → promote (see gate); any gate failure pivots the whole rollout into
// rollback, which unwinds the already-promoted workers in reverse order.
// done / failed are terminal.
const (
	PhaseDeploy   = "deploy"
	PhaseCanary   = "canary"
	PhasePromote  = "promote"
	PhaseRollback = "rollback"
	PhaseDone     = "done"
	PhaseFailed   = "failed"
)

// Rollout is the journaled state of one fleet-wide rolling deploy. Every
// field is exported for JSON round-tripping through the controller journal;
// each Step() performs at most one worker action and journals the resulting
// state, so a controller killed at any point resumes exactly one action deep.
// The phases are idempotent against replayed or half-delivered RPCs: a
// re-deploy replaces the candidate, and promote ambiguity (reply lost to a
// partition) is resolved by the next canary feed's status instead of
// guessing.
type Rollout struct {
	Slot string `json:"slot"`
	Src  string `json:"src"`
	// Gen is the fleet generation this rollout installs; the catalog only
	// adopts it when every worker promoted.
	Gen   int      `json:"gen"`
	Order []string `json:"order"` // workers in deploy order
	Idx   int      `json:"idx"`   // current worker index
	// gate is the current worker's install; its Phase doubles as the
	// rollout's, which also takes the values rollback, done and failed.
	gate
	// Promoted lists workers already running Gen, in promotion order.
	Promoted []string `json:"promoted,omitempty"`
	// CandGen is read, never written: journals from before the gate kept a
	// candidate generation per worker here, and recovery moves the current
	// worker's entry into Cand.
	CandGen map[string]int `json:"candGen,omitempty"`
	// Rollback bookkeeping: Aborted records that the in-flight candidate on
	// the current worker was torn down; RbIdx indexes Promoted from the
	// back; Skipped lists workers that were unreachable during rollback and
	// are left for reconcile to restore when they rejoin.
	Aborted bool     `json:"aborted,omitempty"`
	RbIdx   int      `json:"rbIdx,omitempty"`
	Skipped []string `json:"skipped,omitempty"`
	Reason  string   `json:"reason,omitempty"`
}

func (r *Rollout) terminal() bool {
	return r == nil || r.Phase == PhaseDone || r.Phase == PhaseFailed
}

func (r *Rollout) clone() Rollout {
	cp := *r
	cp.Order = append([]string(nil), r.Order...)
	cp.Promoted = append([]string(nil), r.Promoted...)
	cp.Skipped = append([]string(nil), r.Skipped...)
	return cp
}

// Deploy starts a fleet-wide rolling deploy of src into slot across the
// slot's routable replicas, in name order (assigning the placement first for
// a new slot). It fails if a rollout is already in flight or no worker is
// routable; the actual work happens one action per Step.
func (c *Controller) Deploy(slot, src string) error {
	if slot == "" || src == "" {
		return errors.New("fleet: deploy needs a slot and a source")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rollout != nil && !c.rollout.terminal() {
		return fmt.Errorf("fleet: rollout of %s already in flight (phase %s)",
			c.rollout.Slot, c.rollout.Phase)
	}
	order := c.workerNamesLocked(func(w *worker) bool { return w.health.eligible() })
	if len(order) == 0 {
		return errors.New("fleet: no routable workers to deploy to")
	}
	pl := c.placements[slot]
	if pl == nil {
		pl = c.assignPlacementLocked(slot)
	}
	order = order[:0]
	for _, rn := range pl.Replicas {
		if w := c.workers[rn]; w != nil && w.health.eligible() {
			order = append(order, rn)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("fleet: no routable replica of %s to deploy to", slot)
	}
	sort.Strings(order)
	// The rollout owns the slot now; any repair racing it is stale.
	c.cancelRepairsForSlotLocked(slot, "new rollout owns the slot")
	gen := 1
	if cat := c.catalog[slot]; cat != nil {
		gen = cat.Gen + 1
	}
	c.rollout = &Rollout{Slot: slot, Src: src, Gen: gen, Order: order,
		gate: gate{Phase: PhaseDeploy}}
	c.journalRolloutLocked()
	if c.met != nil {
		c.met.rolloutsStarted.Inc()
	}
	c.eventLocked(Event{Kind: EventRolloutStarted, Slot: slot,
		Detail: fmt.Sprintf("gen%d %q across %d workers", gen, src, len(order))})
	return nil
}

// Step advances the in-flight rollout by at most one worker action and
// journals the result. It returns true when no rollout is in flight or the
// rollout reached a terminal phase. A transport failure makes no forward
// decision — the same action retries next Step, unless the worker has gone
// down, which halts the rollout into rollback.
func (c *Controller) Step() (bool, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rollout
	if r.terminal() {
		return true, nil
	}
	switch {
	case r.Phase == PhaseRollback:
		c.mu.Unlock()
		c.stepRollback(r)
		c.mu.Lock()
	case r.Idx >= len(r.Order):
		c.finishLocked(r)
	default:
		name := r.Order[r.Idx]
		if w := c.workers[name]; w == nil || w.health == Down {
			c.haltLocked(r, fmt.Sprintf("worker %s is down", name))
			break
		}
		g := r.gate
		c.mu.Unlock()
		out, liveGen, why := c.gateStep(name, r.Slot, r.Src, &g)
		c.mu.Lock()
		r.gate = g
		c.judgeLocked(r, name, out, liveGen, why)
	}
	c.journalRolloutLocked()
	return c.rollout.terminal(), nil
}

// judgeLocked maps the current worker's gate outcome onto the rollout:
// promoted advances it, refused halts it, pending and unreachable leave it
// for the next Step (the health machine halts it once the worker is down).
func (c *Controller) judgeLocked(r *Rollout, name string, out outcome, liveGen int, why string) {
	switch out {
	case gateBootstrapped:
		if c.catalog[r.Slot] == nil {
			// Fresh slot fleet-wide: the bootstrap deploy goes live at once
			// (no incumbent anywhere to mirror against), which is a promotion
			// in fleet terms.
			c.markPromotedLocked(r, name, liveGen)
			return
		}
		// The fleet has a blessed incumbent for this slot, but the deploy went
		// live with no candidate staged: the worker lost its state (restarted
		// empty mid-rollout) and the new version switched in without paying
		// the canary gate. An ungated switch never counts as a promotion —
		// halt the rollout, and park the worker in Recovering so reconcile
		// pushes the blessed version back over the ungated one once the
		// rollback settles.
		if w := c.workers[name]; w != nil && w.health != Down {
			c.setHealthLocked(w, Recovering, "ungated live switch during rollout")
		}
		c.haltLocked(r, fmt.Sprintf("ungated live switch on %s (incumbent lost)", name))
	case gatePromoted:
		c.markPromotedLocked(r, name, liveGen)
	case gateRefused:
		// One node's verdict halts the whole fleet.
		c.haltLocked(r, why+" on "+name)
	}
}

// markPromotedLocked records worker name as running r.Gen and moves the
// rollout to the next worker (or completion).
func (c *Controller) markPromotedLocked(r *Rollout, name string, liveGen int) {
	c.setInstalledLocked(name, r.Slot, r.Gen, liveGen, true)
	r.Promoted = append(r.Promoted, name)
	c.eventLocked(Event{Kind: EventWorkerPromoted, Worker: name, Slot: r.Slot,
		Detail: fmt.Sprintf("fleet gen%d live=gen%d (%d/%d)",
			r.Gen, liveGen, len(r.Promoted), len(r.Order))})
	r.Idx++
	r.gate = gate{Phase: PhaseDeploy}
	if r.Idx >= len(r.Order) {
		c.finishLocked(r)
	}
}

// finishLocked completes the rollout: the catalog adopts the new version,
// making it the generation reconcile defends from now on.
func (c *Controller) finishLocked(r *Rollout) {
	r.Phase = PhaseDone
	cat := &CatalogSlot{Name: r.Slot, Src: r.Src, Gen: r.Gen}
	c.catalog[r.Slot] = cat
	c.jl.Append(func() any { return record{Kind: recCatalog, Catalog: cat} }, true)
	if c.met != nil {
		c.met.rolloutsCompleted.Inc()
	}
	c.eventLocked(Event{Kind: EventRolloutDone, Slot: r.Slot,
		Detail: fmt.Sprintf("gen%d live on %d workers", r.Gen, len(r.Promoted))})
}

// haltLocked pivots the rollout into rollback. The catalog was never
// updated, so even workers we cannot reach right now converge back to the
// old version through reconcile when they reappear.
func (c *Controller) haltLocked(r *Rollout, reason string) {
	if r.Phase == PhaseRollback {
		return
	}
	r.Phase = PhaseRollback
	r.Reason = reason
	r.Aborted = false
	r.RbIdx = 0
	c.eventLocked(Event{Kind: EventRolloutHalted, Slot: r.Slot, Detail: reason})
}

func (c *Controller) stepRollback(r *Rollout) {
	// First unwind action: tear down the in-flight candidate on the worker
	// the rollout was parked on, so it cannot clear canary and self-promote
	// state later. Best-effort — a dead worker's candidate dies with it.
	if !r.Aborted {
		c.mu.Lock()
		staged := r.Cand != 0 && r.Idx < len(r.Order)
		r.Aborted = true
		c.mu.Unlock()
		if staged {
			_, _ = c.rpc(r.Order[r.Idx], "abort "+r.Slot, false)
			return
		}
	}

	c.mu.Lock()
	if r.RbIdx >= len(r.Promoted) {
		r.Phase = PhaseFailed
		if c.catalog[r.Slot] == nil {
			// A failed bootstrap rollout: the slot was never blessed, so its
			// placement points at nothing the fleet defends. Withdraw it — the
			// next Deploy re-assigns fresh against then-current membership.
			c.dropPlacementLocked(r.Slot, "bootstrap rollout failed")
		}
		if c.met != nil {
			c.met.rolloutsFailed.Inc()
		}
		c.eventLocked(Event{Kind: EventRolloutFailed, Slot: r.Slot,
			Detail: fmt.Sprintf("%s; rolled back %d workers, %d left to reconcile",
				r.Reason, len(r.Promoted)-len(r.Skipped), len(r.Skipped))})
		c.mu.Unlock()
		return
	}
	name := r.Promoted[len(r.Promoted)-1-r.RbIdx]
	w := c.workers[name]
	oldGen := 0
	if cat := c.catalog[r.Slot]; cat != nil {
		oldGen = cat.Gen
	}
	if w == nil || w.health == Down {
		// Unreachable: leave it to reconcile. Its installed record still
		// says r.Gen, which no longer matches the catalog, so the moment it
		// rejoins the old version is pushed back onto it.
		r.Skipped = append(r.Skipped, name)
		r.RbIdx++
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	lines, err := c.rpc(name, "rollback "+r.Slot, false)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		return // retry next Step; if the worker went down we skip it then
	}
	if last, ok := ReplyOK(lines); ok {
		c.setInstalledLocked(name, r.Slot, oldGen, parseLiveGen(last), true)
		c.eventLocked(Event{Kind: EventWorkerRolled, Worker: name, Slot: r.Slot,
			Detail: fmt.Sprintf("back to fleet gen%d", oldGen)})
	} else {
		// "err no previous program" or similar: this worker cannot unwind
		// locally (e.g. the slot was fresh); reconcile restores it from the
		// catalog if the catalog has a blessed version. Demote it so the next
		// Tick actually runs that reconcile — a Healthy worker is never
		// re-examined.
		r.Skipped = append(r.Skipped, name)
		if w := c.workers[name]; w != nil && w.health != Down {
			c.setHealthLocked(w, Recovering, "rollback refused; awaiting reconcile")
		}
		c.eventLocked(Event{Kind: EventWorkerRolled, Worker: name, Slot: r.Slot,
			Detail: "local rollback refused (" + lastLine(lines) + "); left to reconcile"})
	}
	r.RbIdx++
}

// RolloutStatus returns a copy of the current rollout, or nil.
func (c *Controller) RolloutStatus() *Rollout {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rollout == nil {
		return nil
	}
	cp := c.rollout.clone()
	return &cp
}
