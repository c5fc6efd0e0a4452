package fleet

import "fmt"

// EventKind classifies fleet-level events. They mirror the per-slot lifecycle
// events one level up: what happened to a worker or a rollout, not to a
// program stage.
type EventKind string

const (
	EventJoin           EventKind = "join"
	EventHealthChange   EventKind = "health"
	EventReconciled     EventKind = "reconciled"
	EventRolloutStarted EventKind = "rollout-started"
	EventRolloutDone    EventKind = "rollout-done"
	EventRolloutHalted  EventKind = "rollout-halted"
	EventRolloutFailed  EventKind = "rollout-failed"
	EventWorkerPromoted EventKind = "worker-promoted"
	EventRecovered      EventKind = "recovered"
	EventLeave          EventKind = "leave"
	EventPlacement      EventKind = "placement"
	EventRepair         EventKind = "repair"
	EventDrained        EventKind = "drained"
	EventJournal        EventKind = "journal" // the journal detached or re-attached
)

// Event is one entry in the controller's bounded event ring.
type Event struct {
	Seq    int
	Kind   EventKind
	Worker string
	Slot   string
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("[%d] %s", e.Seq, e.Kind)
	if e.Worker != "" {
		s += " worker=" + e.Worker
	}
	if e.Slot != "" {
		s += " slot=" + e.Slot
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// eventLocked appends to the ring, dropping the oldest entry past MaxEvents.
func (c *Controller) eventLocked(ev Event) {
	c.eventSeq++
	ev.Seq = c.eventSeq
	c.events = append(c.events, ev)
	if max := c.cfg.MaxEvents; len(c.events) > max {
		copy(c.events, c.events[len(c.events)-max:])
		c.events = c.events[:max]
	}
}

// Events returns a copy of the controller's event ring, oldest first.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}
