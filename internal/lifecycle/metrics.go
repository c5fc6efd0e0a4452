package lifecycle

import (
	"merlin/internal/metrics"
)

// The metrics half of the manager: every slot carries preresolved registry
// handles for its hot-path counters (served, mirrored, divergence, canary
// cycle histogram), while the per-EventKind counters are driven by draining
// the slot's event ring through a sequence-number watermark. Draining is
// read-only with respect to the ring — Events() ordering and capacity are
// never perturbed — and idempotent: an event is counted exactly once no
// matter how often the ring is scanned. Events about to be evicted from the
// bounded ring are drained first, so no event is ever lost to the registry
// even if nothing scrapes between evictions.
//
// Everything here runs under the manager lock, so lazy per-kind series
// creation needs no extra synchronization.

// slotMetrics holds one slot's registry handles.
type slotMetrics struct {
	reg  *metrics.Registry
	slot string

	served       *metrics.Counter
	mirrored     *metrics.Counter
	divergence   *metrics.Counter
	degraded     *metrics.Counter
	canaryRouted *metrics.Counter
	canaryCyc    *metrics.Histogram

	events map[EventKind]*metrics.Counter
	stages map[Stage]*metrics.Counter

	liveGen   *metrics.Gauge
	candRuns  *metrics.Gauge
	ringDepth *metrics.Gauge
	retries   *metrics.Gauge
}

func newSlotMetrics(reg *metrics.Registry, slot string) *slotMetrics {
	return &slotMetrics{
		reg:  reg,
		slot: slot,
		served: reg.Counter("merlin_lifecycle_served_total",
			"Packets answered by the slot (incumbent or degraded fallback).", "slot", slot),
		mirrored: reg.Counter("merlin_lifecycle_mirrored_total",
			"Packets mirrored into a shadow/canary candidate.", "slot", slot),
		divergence: reg.Counter("merlin_lifecycle_mirror_divergence_total",
			"Mirrored runs whose candidate verdict diverged from the incumbent.", "slot", slot),
		degraded: reg.Counter("merlin_lifecycle_degraded_serves_total",
			"Packets answered by a fallback after an incumbent fault.", "slot", slot),
		canaryRouted: reg.Counter("merlin_lifecycle_canary_routed_total",
			"Live packets whose verdict was answered by the canary (CanaryFraction routing).", "slot", slot),
		canaryCyc: reg.Histogram("merlin_lifecycle_canary_cycles",
			"Candidate cycle cost per mirrored canary run (log2 buckets).", "slot", slot),
		events: map[EventKind]*metrics.Counter{},
		stages: map[Stage]*metrics.Counter{},
		liveGen: reg.Gauge("merlin_lifecycle_live_generation",
			"Generation of the serving program.", "slot", slot),
		candRuns: reg.Gauge("merlin_lifecycle_candidate_runs",
			"Clean mirrored runs of the in-flight candidate in its current stage.", "slot", slot),
		ringDepth: reg.Gauge("merlin_lifecycle_event_ring_depth",
			"Events currently held in the slot's bounded ring.", "slot", slot),
		retries: reg.Gauge("merlin_lifecycle_quarantine_retries",
			"Rebuild attempts consumed by the current quarantine episode.", "slot", slot),
	}
}

// servedInc and friends are nil-safe so the serve path never branches on
// whether metrics are configured.
func (sm *slotMetrics) servedInc() {
	if sm != nil {
		sm.served.Inc()
	}
}

// servedAdd counts a whole clean batch in one registry update.
func (sm *slotMetrics) servedAdd(n uint64) {
	if sm != nil && n > 0 {
		sm.served.Add(n)
	}
}

func (sm *slotMetrics) mirroredInc() {
	if sm != nil {
		sm.mirrored.Inc()
	}
}

func (sm *slotMetrics) divergenceInc() {
	if sm != nil {
		sm.divergence.Inc()
	}
}

func (sm *slotMetrics) degradedInc() {
	if sm != nil {
		sm.degraded.Inc()
	}
}

func (sm *slotMetrics) canaryRoutedInc() {
	if sm != nil {
		sm.canaryRouted.Inc()
	}
}

func (sm *slotMetrics) observeCanaryCycles(cycles uint64) {
	if sm != nil {
		sm.canaryCyc.Observe(cycles)
	}
}

// eventCounter lazily resolves the per-kind counter (manager lock held).
func (sm *slotMetrics) eventCounter(kind EventKind) *metrics.Counter {
	c := sm.events[kind]
	if c == nil {
		c = sm.reg.Counter("merlin_lifecycle_events_total",
			"Lifecycle events by kind, drained losslessly from the per-slot event rings.",
			"slot", sm.slot, "kind", string(kind))
		sm.events[kind] = c
	}
	return c
}

// stageCounter lazily resolves the stage-transition counter (manager lock
// held). The stage label is the stage the candidate arrived in.
func (sm *slotMetrics) stageCounter(stage Stage) *metrics.Counter {
	c := sm.stages[stage]
	if c == nil {
		c = sm.reg.Counter("merlin_lifecycle_stage_transitions_total",
			"Candidate stage transitions, by destination stage.",
			"slot", sm.slot, "stage", string(stage))
		sm.stages[stage] = c
	}
	return c
}

// drainEventsLocked counts every event in evs whose sequence number is past
// the slot's watermark, then advances the watermark. It never mutates the
// ring, so Events() history is byte-for-byte identical before and after, and
// re-draining the same events is a no-op.
func (m *Manager) drainEventsLocked(s *slot, evs []Event) {
	if s.met == nil {
		return
	}
	for _, ev := range evs {
		if ev.Seq <= s.metricsSeq {
			continue
		}
		s.metricsSeq = ev.Seq
		s.met.eventCounter(ev.Kind).Inc()
		if ev.Kind == EventStageAdvance || ev.Kind == EventPromoted {
			s.met.stageCounter(ev.Stage).Inc()
		}
	}
}

// refreshGaugesLocked re-derives the point-in-time gauges from slot state.
func (m *Manager) refreshGaugesLocked(s *slot) {
	sm := s.met
	if sm == nil {
		return
	}
	liveGen := 0
	if s.live != nil {
		liveGen = s.live.gen
	}
	sm.liveGen.Set(int64(liveGen))
	candRuns := 0
	if s.cand != nil {
		candRuns = s.cand.runs
	}
	sm.candRuns.Set(int64(candRuns))
	sm.ringDepth.Set(int64(len(s.events)))
	retries := 0
	if s.quarantine != nil {
		retries = s.quarantine.attempts
	}
	sm.retries.Set(int64(retries))
}

// CollectMetrics drains any not-yet-counted events from every slot's ring
// into the registry and refreshes the per-slot gauges. It is the export
// hook: call it immediately before encoding the registry. Collection is
// idempotent and leaves every ring untouched — exporting twice in a row
// yields identical event history and identical counter values.
func (m *Manager) CollectMetrics() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		s := m.slots[name]
		m.drainEventsLocked(s, s.events)
		m.refreshGaugesLocked(s)
	}
	m.jl.Collect()
}
