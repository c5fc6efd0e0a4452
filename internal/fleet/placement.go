package fleet

import (
	"fmt"
	"slices"
	"strings"
)

// Placement is one slot's replica assignment: the R distinct workers chosen
// by successor-walk on the consistent-hash ring, in walk order. It is
// journaled (recPlacement) so a SIGKILLed controller recovers exact
// ownership, and Ver increments on every change so journal replay is
// latest-wins and status output shows churn.
type Placement struct {
	Slot     string   `json:"slot"`
	Replicas []string `json:"replicas"`
	Ver      int      `json:"ver"`
	// Gone marks a journaled tombstone: the placement was withdrawn (its
	// bootstrap rollout failed before blessing the slot). Never set on an
	// in-memory placement.
	Gone bool `json:"gone,omitempty"`
}

// replicasLocked returns a copy of the slot's replica set. A slot no rollout
// ever placed (or one recovered from a journal older than placement, until
// the reconciler assigns it) lives on every worker.
func (c *Controller) replicasLocked(slot string) []string {
	if pl := c.placements[slot]; pl != nil {
		return append([]string(nil), pl.Replicas...)
	}
	return c.workerNamesLocked(func(*worker) bool { return true })
}

// assignPlacementLocked picks the slot's initial replicas: walk the ring of
// ALL members from hash(slot) and take the first R distinct workers,
// preferring eligible ones but falling back to down members rather than
// under-assigning — a down replica is repaired or restored later, an
// unassigned one is forgotten. Journals and returns the placement.
func (c *Controller) assignPlacementLocked(slot string) *Placement {
	members := c.workerNamesLocked(func(*worker) bool { return true })
	r := buildRing(members, c.cfg.VNodes)
	walk := r.lookup(slot, len(members))
	want := c.cfg.Replication
	if want > len(members) {
		want = len(members)
	}
	var replicas []string
	for _, n := range walk {
		if len(replicas) == want {
			break
		}
		if c.workers[n].health.eligible() {
			replicas = append(replicas, n)
		}
	}
	for _, n := range walk {
		if len(replicas) == want {
			break
		}
		if !slices.Contains(replicas, n) {
			replicas = append(replicas, n)
		}
	}
	c.setPlacementLocked(slot, replicas, "assigned by ring walk")
	return c.placements[slot]
}

// setPlacementLocked installs and journals a new replica set for the slot.
func (c *Controller) setPlacementLocked(slot string, replicas []string, why string) {
	pl := c.placements[slot]
	ver := 1
	if pl != nil {
		ver = pl.Ver + 1
	}
	np := &Placement{Slot: slot, Replicas: append([]string(nil), replicas...), Ver: ver}
	c.placements[slot] = np
	c.jl.Append(func() any { return record{Kind: recPlacement, Placement: np} }, true)
	c.eventLocked(Event{Kind: EventPlacement, Slot: slot,
		Detail: fmt.Sprintf("ver %d → [%s]: %s", ver, strings.Join(replicas, ","), why)})
	c.gaugesLocked()
}

// dropPlacementLocked withdraws a slot's placement entirely, journaling a
// tombstone so recovery does not resurrect it.
func (c *Controller) dropPlacementLocked(slot, why string) {
	if c.placements[slot] == nil {
		return
	}
	delete(c.placements, slot)
	c.jl.Append(func() any {
		return record{Kind: recPlacement, Placement: &Placement{Slot: slot, Gone: true}}
	}, true)
	c.eventLocked(Event{Kind: EventPlacement, Slot: slot, Detail: "placement withdrawn: " + why})
	c.gaugesLocked()
}

// liveReplicasLocked counts the placement's currently-routable replicas.
func (c *Controller) liveReplicasLocked(pl *Placement) int {
	return c.countReplicasLocked(pl, Health.eligible)
}

// availReplicasLocked counts the replicas that are not down: the reconciler
// repairs only when fewer than R are even plausibly alive, so a worker being
// re-admitted does not trigger a churny re-replication.
func (c *Controller) availReplicasLocked(pl *Placement) int {
	return c.countReplicasLocked(pl, func(h Health) bool { return h != Down })
}

func (c *Controller) countReplicasLocked(pl *Placement, ok func(Health) bool) int {
	n := 0
	for _, rn := range pl.Replicas {
		if w := c.workers[rn]; w != nil && ok(w.health) {
			n++
		}
	}
	return n
}

// Placements returns slot → replica set (copies).
func (c *Controller) Placements() map[string][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]string, len(c.placements))
	for n, pl := range c.placements {
		out[n] = append([]string(nil), pl.Replicas...)
	}
	return out
}

func withoutStr(xs []string, s string) []string {
	return slices.DeleteFunc(slices.Clone(xs), func(x string) bool { return x == s })
}
