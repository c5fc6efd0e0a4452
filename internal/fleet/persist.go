package fleet

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"merlin/internal/journal"
)

// The controller's durable state is five record kinds appended to its
// journal.Ledger (latest-wins per key on replay; worker and installed
// records double as tombstones via Gone) plus the snapshot the ledger folds
// them into — the same ledger, with the same storage-failure policy, as the
// per-worker lifecycle journal one level down. What is NOT persisted is
// health: a recovered controller assumes nothing about the world and
// re-earns its view by probing every journaled worker. Repair tasks are also
// not persisted: a recovered controller recomputes under-replication from
// the placement map and health, which is both simpler and self-correcting.
const (
	recWorker    = "worker"
	recCatalog   = "catalog"
	recInstalled = "installed"
	recRollout   = "rollout"
	recPlacement = "placement"
	// recReattach is the ledger's re-attachment probe: no state.
	recReattach = "reattach"
)

type workerRec struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	Gone bool   `json:"gone,omitempty"` // tombstone: the worker left the fleet
}

type record struct {
	Kind      string        `json:"kind"`
	Worker    *workerRec    `json:"worker,omitempty"`
	Catalog   *CatalogSlot  `json:"catalog,omitempty"`
	Installed *installedRec `json:"installed,omitempty"`
	Rollout   *Rollout      `json:"rollout,omitempty"`
	Placement *Placement    `json:"placement,omitempty"`
}

type snapshot struct {
	Version    int            `json:"version"`
	Workers    []workerRec    `json:"workers"`
	Catalog    []CatalogSlot  `json:"catalog"`
	Installed  []installedRec `json:"installed"`
	Placements []Placement    `json:"placements,omitempty"`
	Rollout    *Rollout       `json:"rollout,omitempty"`
}

const snapshotVersion = 1

// newLedger wires the controller's codec into its journal.Ledger, with the
// library's storage-failure policy and the controller's clock; detaching and
// re-attaching the journal are fleet events.
func (c *Controller) newLedger() *journal.Ledger {
	return journal.NewLedger(nil, journal.LedgerOptions{
		Fold:     func() any { return c.snapshotLocked() },
		Marker:   func(time.Time) any { return record{Kind: recReattach} },
		Degraded: func(why string) { c.eventLocked(Event{Kind: EventJournal, Detail: why}) },
		Reattached: func(n int) {
			c.eventLocked(Event{Kind: EventJournal, Detail: fmt.Sprintf("journal re-attached (reattach #%d)", n)})
		},
		Now:          c.cfg.Now,
		Metrics:      c.cfg.Metrics,
		Prefix:       "merlin_fleet_journal_",
		CompactEvery: c.cfg.CompactEvery,
	})
}

// AttachJournal makes the controller durable. Call before Recover and
// before any Join/Deploy traffic.
func (c *Controller) AttachJournal(j *journal.Log) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.jl.Attach(j) // a healthy ledger only records the log
}

// journalRolloutLocked journals the in-flight rollout, fsynced: each of its
// records is a phase transition.
func (c *Controller) journalRolloutLocked() {
	c.jl.Append(func() any {
		cp := c.rollout.clone()
		return record{Kind: recRollout, Rollout: &cp}
	}, true)
}

func (c *Controller) snapshotLocked() snapshot {
	snap := snapshot{Version: snapshotVersion}
	for _, n := range c.workerNamesLocked(func(*worker) bool { return true }) {
		w := c.workers[n]
		snap.Workers = append(snap.Workers, workerRec{Name: n, Addr: w.addr})
	}
	for _, cat := range c.catalog {
		snap.Catalog = append(snap.Catalog, *cat)
	}
	slices.SortFunc(snap.Catalog, func(a, b CatalogSlot) int { return cmp.Compare(a.Name, b.Name) })
	for _, slots := range c.installed {
		for _, rec := range slots {
			snap.Installed = append(snap.Installed, rec)
		}
	}
	slices.SortFunc(snap.Installed, func(a, b installedRec) int {
		return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Slot, b.Slot))
	})
	for _, n := range c.placementSlotsLocked() {
		pl := c.placements[n]
		cp := *pl
		cp.Replicas = append([]string(nil), pl.Replicas...)
		snap.Placements = append(snap.Placements, cp)
	}
	if c.rollout != nil {
		cp := c.rollout.clone()
		snap.Rollout = &cp
	}
	return snap
}

// Flush forces a snapshot compaction (tests and shutdown paths).
func (c *Controller) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jl.Compact()
}

// RecoverStats summarizes a journal recovery.
type RecoverStats struct {
	Workers    int
	Slots      int
	Installed  int
	Placements int
	Records    int
	// RolloutPhase is the recovered rollout's phase, "" when none.
	RolloutPhase string
}

// Recover rebuilds controller state from the attached journal: snapshot
// first, then the record tail, latest-wins per key. Every recovered worker
// starts Down with an already-expired breaker — the next Tick probes it
// immediately and reconcile re-admits it. An in-flight rollout resumes from
// its journaled phase; its idempotent steps re-discover any action whose
// acknowledgement died with the previous controller.
func (c *Controller) Recover() (RecoverStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rs RecoverStats
	if !c.jl.Attached() {
		return rs, nil
	}
	r, err := c.jl.Recover(func(payload []byte, r *journal.Recovery) error {
		var snap snapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("fleet: corrupt controller snapshot: %w", err)
		}
		r.SnapshotBytes = len(payload)
		for i := range snap.Workers {
			c.applyRecordLocked(record{Kind: recWorker, Worker: &snap.Workers[i]})
		}
		for i := range snap.Catalog {
			c.applyRecordLocked(record{Kind: recCatalog, Catalog: &snap.Catalog[i]})
		}
		for i := range snap.Installed {
			c.applyRecordLocked(record{Kind: recInstalled, Installed: &snap.Installed[i]})
		}
		for i := range snap.Placements {
			c.applyRecordLocked(record{Kind: recPlacement, Placement: &snap.Placements[i]})
		}
		if snap.Rollout != nil {
			c.applyRecordLocked(record{Kind: recRollout, Rollout: snap.Rollout})
		}
		return nil
	}, func(payload []byte, r *journal.Recovery) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A foreign record: skip it (the log already dropped torn tails).
			r.Corrupt++
			return nil
		}
		r.Replayed++
		c.applyRecordLocked(rec)
		return nil
	})
	rs.Records = r.Replayed
	if err != nil {
		return rs, err
	}
	// Prune orphan placements: a crash between a Deploy's placement record
	// and its rollout/catalog records can leave a placement for a slot the
	// recovered controller has no blessed catalog entry for. The rebalancer
	// only repairs catalog slots, so an orphan would sit under-replicated
	// forever; drop it — the next Deploy of the slot re-assigns fresh.
	for _, slot := range c.placementSlotsLocked() {
		if c.catalog[slot] != nil {
			continue
		}
		if c.rollout != nil && !c.rollout.terminal() && c.rollout.Slot == slot {
			continue
		}
		delete(c.placements, slot)
		c.eventLocked(Event{Kind: EventPlacement, Slot: slot,
			Detail: "orphan placement (no catalog) dropped at recovery"})
	}
	rs.Workers = len(c.workers)
	rs.Slots = len(c.catalog)
	rs.Placements = len(c.placements)
	for _, slots := range c.installed {
		rs.Installed += len(slots)
	}
	if c.rollout != nil {
		rs.RolloutPhase = c.rollout.Phase
	}
	c.eventLocked(Event{Kind: EventRecovered, Detail: fmt.Sprintf(
		"%d workers, %d catalog slots, %d records, rollout=%s",
		rs.Workers, rs.Slots, rs.Records, cmp.Or(rs.RolloutPhase, "none"))})
	c.gaugesLocked()
	return rs, nil
}

func (c *Controller) applyRecordLocked(rec record) {
	switch rec.Kind {
	case recWorker:
		if rec.Worker == nil {
			return
		}
		if rec.Worker.Gone {
			delete(c.workers, rec.Worker.Name)
			delete(c.installed, rec.Worker.Name)
			for _, slot := range c.placementSlotsLocked() {
				pl := c.placements[slot]
				if slices.Contains(pl.Replicas, rec.Worker.Name) {
					pl.Replicas = withoutStr(pl.Replicas, rec.Worker.Name)
				}
			}
			return
		}
		w := c.workers[rec.Worker.Name]
		if w == nil {
			w = &worker{name: rec.Worker.Name}
			c.workers[rec.Worker.Name] = w
		}
		w.addr = rec.Worker.Addr
		// Guilty until probed: Down with an expired breaker means the next
		// Tick tries it immediately but nothing routes to it before then.
		w.health = Down
		w.cooldown = c.cfg.BreakerBase
	case recCatalog:
		if rec.Catalog == nil {
			return
		}
		cat := *rec.Catalog
		c.catalog[cat.Name] = &cat
	case recInstalled:
		if rec.Installed == nil {
			return
		}
		if rec.Installed.Gone {
			delete(c.installed[rec.Installed.Worker], rec.Installed.Slot)
			return
		}
		c.installedLocked(rec.Installed.Worker)[rec.Installed.Slot] = *rec.Installed
	case recPlacement:
		if rec.Placement == nil {
			return
		}
		if rec.Placement.Gone {
			delete(c.placements, rec.Placement.Slot)
			return
		}
		cp := *rec.Placement
		cp.Replicas = append([]string(nil), rec.Placement.Replicas...)
		c.placements[cp.Slot] = &cp
	case recRollout:
		if rec.Rollout == nil {
			return
		}
		cp := rec.Rollout.clone()
		if cp.CandGen != nil {
			// Written before the gate carried Cand: only the current worker's
			// candidate is live, and without it a rejected candidate would
			// read as a promote whose reply was lost.
			if cp.Idx < len(cp.Order) {
				cp.Cand = cp.CandGen[cp.Order[cp.Idx]]
			}
			cp.CandGen = nil
		}
		c.rollout = &cp
	}
}
