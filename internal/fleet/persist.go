package fleet

import (
	"encoding/json"
	"fmt"

	"merlin/internal/journal"
)

// The controller's durable state is five record kinds appended to a journal
// (latest-wins per key on replay; worker and installed records double as
// tombstones via Gone) plus a snapshot for compaction — the same shape as
// the per-worker lifecycle journal one level down. What is NOT persisted is
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

// AttachJournal makes the controller durable. Call before Recover and
// before any Join/Deploy traffic.
func (c *Controller) AttachJournal(j *journal.Log) {
	c.mu.Lock()
	c.jl = j
	c.mu.Unlock()
}

// journalLocked appends one record. Journal failures are counted, never
// fatal: the control plane keeps running in memory, exactly like a worker
// in journal-degraded mode.
func (c *Controller) journalLocked(rec record, sync bool) {
	if c.jl == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = c.jl.Append(payload, sync)
	}
	if err != nil {
		if c.met != nil {
			c.met.journalFailures.Inc()
		}
		return
	}
	if c.jAppends++; c.jAppends >= c.cfg.CompactEvery {
		c.jAppends = 0
		c.compactLocked()
	}
}

func (c *Controller) journalRolloutLocked(sync bool) {
	if c.rollout == nil {
		return
	}
	cp := c.rollout.clone()
	c.journalLocked(record{Kind: recRollout, Rollout: &cp}, sync)
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
	for _, slots := range c.installed {
		for _, rec := range slots {
			snap.Installed = append(snap.Installed, rec)
		}
	}
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

func (c *Controller) compactLocked() {
	payload, err := json.Marshal(c.snapshotLocked())
	if err == nil {
		err = c.jl.Compact(payload)
	}
	if err != nil && c.met != nil {
		c.met.journalFailures.Inc()
	}
}

// Flush forces a snapshot compaction (tests and shutdown paths).
func (c *Controller) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jl != nil {
		c.compactLocked()
	}
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
	if c.jl == nil {
		return rs, nil
	}
	if payload, ok := c.jl.Snapshot(); ok {
		var snap snapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return rs, fmt.Errorf("fleet: corrupt controller snapshot: %w", err)
		}
		c.applySnapshotLocked(snap)
	}
	err := c.jl.Replay(func(payload []byte) error {
		var rec record
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			// A torn or foreign record: skip it, the journal layer already
			// dropped truncated tails.
			return nil
		}
		rs.Records++
		c.applyRecordLocked(rec)
		return nil
	})
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
		rs.Workers, rs.Slots, rs.Records, orNone(rs.RolloutPhase))})
	c.gaugesLocked()
	return rs, nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func (c *Controller) applySnapshotLocked(snap snapshot) {
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
				if containsStr(pl.Replicas, rec.Worker.Name) {
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
