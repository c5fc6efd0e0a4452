package lifecycle

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"merlin/internal/ebpf"
	"merlin/internal/journal"
)

// The persistence half of the manager: its codec over journal.Ledger, which
// owns appending, compaction, replay and the storage-failure policy (degrade,
// probe, re-attach). Slot state is journaled as JSON payloads: every mutating
// transition appends the affected slot's complete persisted state (an
// idempotent upsert — replay order is the only thing that matters), and the
// snapshot is the fold of every slot. Recovery is snapshot + journal replay,
// with every corruption counted and tolerated:
// a record that fails to decode is skipped, a deployment whose program
// cannot be reloaded falls back to last-known-good, and a slot with nothing
// restorable is dropped — Recover never returns an error for bad state, only
// for impossible configuration.
//
// What is deliberately NOT persisted:
//   - in-flight candidates (staged/shadow/canary): their mirrored-run
//     validation history would be stale after a restart, so a crash rolls a
//     mid-promotion slot back to its last-known-good incumbent and the
//     candidate must re-earn promotion;
//   - registry metrics: Prometheus counters are expected to reset on
//     process restart (slot status counters — served/mirrored — ARE durable);
//   - build Sources: closures cannot be serialized; the opaque
//     DeployOptions.SourceDesc is journaled instead and reattached through
//     Config.ResolveSource.

// persistVersion guards the snapshot/record schema.
const persistVersion = 1

// recoveryMarkerKind is the record kind of a re-attachment probe. Recover
// counts it as replayed, not corrupt.
const recoveryMarkerKind = "reattach"

// persistedDeployment is one serialized deployment: bytecode, map contents,
// and the helper-nondeterminism state, enough to rebuild a warm machine.
type persistedDeployment struct {
	Gen   int
	Prog  *ebpf.Program
	Maps  [][]byte
	Rng   uint64
	Ktime uint64
}

// persistedQuarantine is the watchdog ledger. NotBefore is absolute, so the
// remaining backoff survives a restart (a backoff that expired while the
// daemon was down allows an immediate retry).
type persistedQuarantine struct {
	Attempts  int
	NotBefore int64 // UnixNano; 0 = none
	Dead      bool
	Reason    string
}

// persistedSlot is a slot's complete durable state.
type persistedSlot struct {
	Version        int
	Name           string
	SourceDesc     string
	CanaryFraction float64
	NextGen        int
	Live           *persistedDeployment
	LastGood       *persistedDeployment
	Baseline       *persistedDeployment
	Quarantine     *persistedQuarantine
	Served         uint64
	Mirrored       uint64
	CanaryRouted   uint64
	Seq            int
	Events         []Event
}

// persistedRecord is one journal payload: a slot upsert, a slot removal
// tombstone (Kind "remove", Name set), or the recovery marker a degraded
// journal appends on re-attachment (Kind "reattach", At set, Slot nil).
type persistedRecord struct {
	Kind string // "slot" | "remove" | "reattach"
	Slot *persistedSlot
	Name string `json:",omitempty"` // removal tombstones only
	At   int64  `json:",omitempty"` // UnixNano, recovery markers only
}

// persistedSnapshot is the compacted full state.
type persistedSnapshot struct {
	Version int
	Slots   []*persistedSlot
}

func encodeDeployment(d *deployment) *persistedDeployment {
	if d == nil {
		return nil
	}
	rng, ktime := d.machine.HelperState()
	return &persistedDeployment{
		Gen:   d.gen,
		Prog:  d.prog,
		Maps:  d.machine.MapStates(),
		Rng:   rng,
		Ktime: ktime,
	}
}

func (m *Manager) encodeSlotLocked(s *slot) *persistedSlot {
	ps := &persistedSlot{
		Version:        persistVersion,
		Name:           s.name,
		SourceDesc:     s.opts.SourceDesc,
		CanaryFraction: s.opts.CanaryFraction,
		NextGen:        s.nextGen,
		Live:           encodeDeployment(s.live),
		LastGood:       encodeDeployment(s.lastGood),
		Baseline:       encodeDeployment(s.baseline),
		Served:         s.served,
		Mirrored:       s.mirrored,
		CanaryRouted:   s.canaryRouted,
		Seq:            s.seq,
		Events:         append([]Event(nil), s.events...),
	}
	if q := s.quarantine; q != nil {
		pq := &persistedQuarantine{Attempts: q.attempts, Dead: q.dead, Reason: q.reason}
		if !q.notBefore.IsZero() {
			pq.NotBefore = q.notBefore.UnixNano()
		}
		ps.Quarantine = pq
	}
	return ps
}

// newLedger wires the manager's codec into its journal.Ledger: the snapshot
// is the fold of every slot, the re-attachment marker a "reattach" record,
// and the journal detaching or re-attaching is an event on every slot (a
// re-attachment's lands before the compaction that re-persists the slots).
func (m *Manager) newLedger() *journal.Ledger {
	return journal.NewLedger(m.cfg.Journal, journal.LedgerOptions{
		Fold: func() any {
			snap := persistedSnapshot{Version: persistVersion}
			for _, name := range m.order {
				snap.Slots = append(snap.Slots, m.encodeSlotLocked(m.slots[name]))
			}
			return snap
		},
		Marker: func(at time.Time) any {
			return persistedRecord{Kind: recoveryMarkerKind, At: at.UnixNano()}
		},
		Degraded: func(why string) { m.allSlotsEventLocked(EventJournalDegraded, why) },
		Reattached: func(n int) {
			m.allSlotsEventLocked(EventJournalReattached,
				fmt.Sprintf("journal re-attached (reattach #%d); state re-persisted", n))
		},
		Now:          m.cfg.Now,
		Metrics:      m.cfg.Metrics,
		Prefix:       "merlin_journal_",
		CompactEvery: m.cfg.CompactEvery,
		DegradeAfter: m.cfg.JournalDegradeAfter,
		RetryBase:    m.cfg.JournalRetryBase,
		RetryMax:     m.cfg.JournalRetryMax,
	})
}

func (m *Manager) allSlotsEventLocked(kind EventKind, detail string) {
	for _, name := range m.order {
		m.eventLocked(m.slots[name], Event{Kind: kind, Stage: StageLive, Detail: detail})
	}
}

// journalSlotLocked appends the slot's current state. sync forces an fsync —
// used on stage transitions so they survive machine crashes, not just
// process crashes; Flush leaves its records unforced and syncs once.
func (m *Manager) journalSlotLocked(s *slot, sync bool) {
	m.jl.Append(func() any { return persistedRecord{Kind: "slot", Slot: m.encodeSlotLocked(s)} }, sync)
}

// Flush journals the current state of every slot (map contents included) and
// syncs the journal: one fsync however many slots, and every record durable
// when it returns. merlind calls it after traffic (map mutations happen
// without lifecycle transitions) and on SIGINT/SIGTERM. While the journal is
// degraded it is only a probe: a successful one re-persists everything.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.jl.Degraded() {
		for _, name := range m.order {
			m.journalSlotLocked(m.slots[name], false)
		}
	}
	m.jl.Sync()
	return nil
}

// Compact forces a snapshot compaction (exposed for shutdown paths: one
// snapshot instead of a long journal to replay on the next boot).
func (m *Manager) Compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jl.Compact()
}

// JournalHealth reports the manager's durability health.
func (m *Manager) JournalHealth() journal.Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jl.Health()
}

// MarkJournalUnavailable puts a journal-less manager into the degraded
// health state: merlind calls it when journal.Open fails at startup so the
// outage is visible in /metrics and health output while the daemon serves
// in-memory, retries the open, and hands the eventual handle to
// AttachJournal.
func (m *Manager) MarkJournalUnavailable(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jl.MarkUnavailable(reason)
}

// AttachJournal hands the manager a (re)opened journal. A degraded manager
// probes it at once and, when the marker lands, re-persists every slot; on
// marker failure the journal stays attached but degraded, and the ledger's
// backoff probes take over.
func (m *Manager) AttachJournal(j *journal.Log) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.jl.Attach(j); err != nil {
		return fmt.Errorf("lifecycle: journal attach probe: %w", err)
	}
	return nil
}

// RecoverStats reports what Recover reconstructed and what it had to drop.
type RecoverStats struct {
	// Slots / Deployments are the recovered slot and machine counts.
	Slots       int
	Deployments int
	// ReplayedRecords counts intact journal records applied on top of the
	// snapshot; SnapshotBytes is the snapshot payload size (0 = none).
	ReplayedRecords int
	SnapshotBytes   int
	// CorruptRecords counts everything discarded: torn journal tails, bad
	// checksums, undecodable payloads, wrong-version records.
	CorruptRecords int
	// DroppedSlots counts journaled slots with no restorable deployment;
	// DroppedCandidates would always be 0 (candidates are never persisted)
	// and is omitted.
	DroppedSlots int
	// UnresolvedSources counts recovered slots whose SourceDesc could not be
	// reattached (watchdog rebuilds disabled for them).
	UnresolvedSources int
}

func (rs RecoverStats) String() string {
	return fmt.Sprintf("slots=%d deployments=%d replayed=%d snapshot_bytes=%d corrupt=%d dropped=%d unresolved_sources=%d",
		rs.Slots, rs.Deployments, rs.ReplayedRecords, rs.SnapshotBytes,
		rs.CorruptRecords, rs.DroppedSlots, rs.UnresolvedSources)
}

// Recover rebuilds the manager's slots from the journal's snapshot + record
// replay. Call it once, on startup, before serving. Corrupt state degrades:
// damaged records are skipped and counted, a live deployment that cannot be
// reloaded falls back to last-known-good (the "mid-promotion rolls back"
// guarantee), and at worst the manager starts with a fresh ledger. The
// returned stats are also published to the metrics registry when configured.
func (m *Manager) Recover() (RecoverStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rs RecoverStats
	if !m.jl.Attached() {
		return rs, fmt.Errorf("lifecycle: Recover needs Config.Journal")
	}
	if len(m.slots) > 0 {
		return rs, fmt.Errorf("lifecycle: Recover must run before any Deploy")
	}

	// Latest-wins upsert of persisted slots: snapshot first, then journal
	// records in append order. Anything undecodable, of another version or
	// of an unknown kind counts as corrupt.
	latest := map[string]*persistedSlot{}
	var order []string
	upsert := func(ps *persistedSlot, r *journal.Recovery) {
		if ps == nil || ps.Name == "" || ps.Version != persistVersion {
			r.Corrupt++
			return
		}
		if _, ok := latest[ps.Name]; !ok {
			order = append(order, ps.Name)
		}
		latest[ps.Name] = ps
	}
	// A read fault mid-replay leaves an older state, never a wrong one.
	r, _ := m.jl.Recover(func(payload []byte, r *journal.Recovery) error {
		var snap persistedSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil || snap.Version != persistVersion {
			r.Corrupt++
			return nil
		}
		r.SnapshotBytes = len(payload)
		for _, ps := range snap.Slots {
			upsert(ps, r)
		}
		return nil
	}, func(payload []byte, r *journal.Recovery) error {
		var rec persistedRecord
		switch err := json.Unmarshal(payload, &rec); {
		case err != nil:
			r.Corrupt++
		case rec.Kind == "slot":
			r.Replayed++
			upsert(rec.Slot, r)
		case rec.Kind == "remove":
			r.Replayed++
			delete(latest, rec.Name)
			order = slices.DeleteFunc(order, func(n string) bool { return n == rec.Name })
		case rec.Kind == recoveryMarkerKind:
			// A past outage's re-attachment marker: carries no slot state.
			r.Replayed++
		default:
			r.Corrupt++
		}
		return nil
	})
	rs.ReplayedRecords, rs.SnapshotBytes, rs.CorruptRecords = r.Replayed, r.SnapshotBytes, r.Corrupt

	for _, name := range order {
		ps := latest[name]
		s, nds, err := m.restoreSlotLocked(ps)
		if err != nil {
			rs.DroppedSlots++
			continue
		}
		rs.Slots++
		rs.Deployments += nds
		if ps.SourceDesc != "" && s.source == nil {
			rs.UnresolvedSources++
		}
	}

	if reg := m.cfg.Metrics; reg != nil { // the ledger published its own counts
		reg.Gauge("merlin_lifecycle_recovered_slots",
			"Slots reconstructed from the journal by the last Recover.").Set(int64(rs.Slots))
		reg.Gauge("merlin_lifecycle_recovered_deployments",
			"Deployments (live/last-known-good/baseline) reconstructed by the last Recover.").Set(int64(rs.Deployments))
	}
	return rs, nil
}

// restoreDeployment rebuilds one machine from its persisted form.
func (m *Manager) restoreDeployment(pd *persistedDeployment) (*deployment, error) {
	if pd == nil {
		return nil, nil
	}
	if pd.Prog == nil {
		return nil, fmt.Errorf("lifecycle: persisted deployment gen %d has no program", pd.Gen)
	}
	d, err := m.newDeployment(pd.Prog, pd.Gen)
	if err != nil {
		return nil, err
	}
	if err := d.machine.SetMapStates(pd.Maps); err != nil {
		return nil, err
	}
	d.machine.SetHelperState(pd.Rng, pd.Ktime)
	return d, nil
}

// restoreSlotLocked reconstructs one slot. The live deployment is restored
// from Live, falling back to LastGood then Baseline; a slot with no
// restorable deployment is dropped with an error.
func (m *Manager) restoreSlotLocked(ps *persistedSlot) (*slot, int, error) {
	var live, lastGood, baseline *deployment
	nds := 0
	rolledBack := ""

	if d, err := m.restoreDeployment(ps.Live); err == nil && d != nil {
		live, nds = d, nds+1
	} else if err != nil {
		rolledBack = fmt.Sprintf("live gen %d unrestorable (%v); ", ps.Live.Gen, err)
	}
	if d, err := m.restoreDeployment(ps.LastGood); err == nil && d != nil {
		if live == nil {
			live = d
		} else {
			lastGood = d
		}
		nds++
	}
	if d, err := m.restoreDeployment(ps.Baseline); err == nil && d != nil {
		baseline, nds = d, nds+1
		if live == nil {
			live = baseline
		}
	}
	if live == nil {
		return nil, 0, fmt.Errorf("lifecycle: slot %s: no restorable deployment", ps.Name)
	}
	live.stage = StageLive

	s := m.slotLocked(ps.Name)
	s.opts = DeployOptions{CanaryFraction: ps.CanaryFraction, SourceDesc: ps.SourceDesc}
	s.nextGen = ps.NextGen
	s.live, s.lastGood, s.baseline = live, lastGood, baseline
	s.served, s.mirrored, s.canaryRouted = ps.Served, ps.Mirrored, ps.CanaryRouted
	s.seq = ps.Seq
	if n := len(ps.Events); n > m.cfg.MaxEvents {
		ps.Events = ps.Events[n-m.cfg.MaxEvents:]
	}
	s.events = append([]Event(nil), ps.Events...)
	if pq := ps.Quarantine; pq != nil {
		q := &quarantineState{attempts: pq.Attempts, dead: pq.Dead, reason: pq.Reason}
		if pq.NotBefore != 0 {
			q.notBefore = time.Unix(0, pq.NotBefore)
		}
		s.quarantine = q
	}
	if ps.SourceDesc != "" && m.cfg.ResolveSource != nil {
		if src, err := m.cfg.ResolveSource(ps.SourceDesc); err == nil {
			s.source = src
		}
	}

	detail := fmt.Sprintf("%srecovered live gen %d (served=%d, %d events)",
		rolledBack, s.live.gen, s.served, len(s.events))
	if q := s.quarantine; q != nil {
		remaining := time.Duration(0)
		if !q.notBefore.IsZero() {
			if left := q.notBefore.Sub(m.cfg.Now()); left > 0 {
				remaining = left
			}
		}
		detail += fmt.Sprintf("; quarantined (attempts=%d dead=%v backoff_left=%s)",
			q.attempts, q.dead, remaining)
	}
	m.eventLocked(s, Event{Kind: EventRecovered, Stage: StageLive,
		Generation: s.live.gen, Detail: detail})
	return s, nds, nil
}
