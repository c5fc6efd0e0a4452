package fleet

import (
	"errors"
	"fmt"
	"sort"
)

// Rollout phases. Forward progress on each worker is its gate's deploy →
// canary → promote (see gate); any gate failure pivots the whole rollout into
// rollback, which withdraws the candidate: the blessed version is desired
// again and one reconciler pass converges the workers to it.
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
// each forward Step() performs at most one worker action and journals the
// resulting state, so a controller killed at any point resumes exactly one
// action deep (the rollback Step's reconciler pass re-reads every worker it
// acts on, so it is safe to repeat).
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
	// worker's entry into Cand. (Journals from before the reconciler also
	// carry aborted/rbIdx/skipped rollback bookkeeping, which is ignored.)
	CandGen map[string]int `json:"candGen,omitempty"`
	Reason  string         `json:"reason,omitempty"`
}

func (r *Rollout) terminal() bool {
	return r == nil || r.Phase == PhaseDone || r.Phase == PhaseFailed
}

// owns reports whether r is moving slot forward: in flight and not rolling
// back. The reconciler leaves the gate's worker and the promoted replicas of
// an owned slot alone.
func (r *Rollout) owns(slot string) bool {
	return !r.terminal() && r.Phase != PhaseRollback && r.Slot == slot
}

func (r *Rollout) clone() Rollout {
	cp := *r
	cp.Order = append([]string(nil), r.Order...)
	cp.Promoted = append([]string(nil), r.Promoted...)
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
		// The candidate is withdrawn: one reconciler pass converges every
		// reachable worker to the blessed version (a down one converges
		// when it returns).
		c.mu.Unlock()
		c.pass()
		c.mu.Lock()
		r.Phase = PhaseFailed
		if c.met != nil {
			c.met.rolloutsFailed.Inc()
		}
		c.eventLocked(Event{Kind: EventRolloutFailed, Slot: r.Slot, Detail: fmt.Sprintf(
			"%s; gen%d withdrawn from %d promoted workers", r.Reason, r.Gen, len(r.Promoted))})
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
		// halt the rollout; the worker's installed record does not vouch for
		// what it runs, so the rollback pass restores the blessed version.
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
	c.setInstalledLocked(name, r.Slot, r.Gen, liveGen)
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
// making it the generation the reconciler defends from now on.
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
// updated, so the candidate simply stops being desired: workers we cannot
// reach right now converge back to the blessed version when they reappear.
func (c *Controller) haltLocked(r *Rollout, reason string) {
	r.Phase = PhaseRollback
	r.Reason = reason
	c.eventLocked(Event{Kind: EventRolloutHalted, Slot: r.Slot, Detail: reason})
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
