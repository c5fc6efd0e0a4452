package fleet

import (
	"merlin/internal/metrics"
)

// fleetMetrics holds the controller's registry handles. All families are
// registered up front so a scrape sees zeros rather than absent series.
type fleetMetrics struct {
	workersState map[Health]*metrics.Gauge
	degraded     *metrics.Gauge

	rpcs        *metrics.Counter
	rpcFailures *metrics.Counter
	retries     *metrics.Counter
	breakerFast *metrics.Counter
	probes      *metrics.Counter

	trafficSent *metrics.Counter
	reroutes    *metrics.Counter
	lastResort  *metrics.Counter
	dropped     *metrics.Counter

	rolloutsStarted   *metrics.Counter
	rolloutsCompleted *metrics.Counter
	rolloutsFailed    *metrics.Counter

	reconciles *metrics.Counter

	// Placement / repair telemetry.
	reg                *metrics.Registry // for lazy per-slot replica gauges
	replicaGauges      map[string]*metrics.Gauge
	underReplicated    *metrics.Gauge
	failovers          *metrics.Counter
	drains             *metrics.Counter
	repairsStarted     *metrics.Counter
	repairsFailed      *metrics.Counter
	repairsDone        map[string]*metrics.Counter // by mode: gated, bootstrap, restore
	repairBreakerOpens *metrics.Counter
	repairSteps        *metrics.Histogram
	repairMillis       *metrics.Histogram

	// Superopt cache federation.
	cacheSyncs     *metrics.Counter
	cachePulled    *metrics.Counter
	cachePushed    *metrics.Counter
	cacheConflicts *metrics.Counter
	cacheSkips     *metrics.Counter
	cacheUnion     *metrics.Gauge
}

func newFleetMetrics(r *metrics.Registry) *fleetMetrics {
	if r == nil {
		return nil
	}
	fm := &fleetMetrics{workersState: map[Health]*metrics.Gauge{}}
	for _, h := range healthNames {
		fm.workersState[h] = r.Gauge("merlin_fleet_workers",
			"workers by health state", "state", h.String())
	}
	fm.degraded = r.Gauge("merlin_fleet_degraded",
		"1 when any joined worker is not routable (down or recovering)")
	fm.rpcs = r.Counter("merlin_fleet_rpcs_total", "worker RPC attempts")
	fm.rpcFailures = r.Counter("merlin_fleet_rpc_failures_total",
		"worker RPC transport failures")
	fm.retries = r.Counter("merlin_fleet_rpc_retries_total",
		"read RPC retry attempts after a transport failure")
	fm.breakerFast = r.Counter("merlin_fleet_breaker_fastfails_total",
		"RPCs rejected locally by an open circuit breaker")
	fm.probes = r.Counter("merlin_fleet_probes_total",
		"half-open probes sent to down workers")
	fm.trafficSent = r.Counter("merlin_fleet_traffic_sent_total",
		"packets fanned out to workers")
	fm.reroutes = r.Counter("merlin_fleet_reroutes_total",
		"traffic chunks rerouted to a failover worker")
	fm.lastResort = r.Counter("merlin_fleet_traffic_last_resort_total",
		"traffic chunks salvaged by trying breaker-open workers")
	fm.dropped = r.Counter("merlin_fleet_dropped_packets_total",
		"packets dropped because every candidate worker failed")
	fm.rolloutsStarted = r.Counter("merlin_fleet_rollouts_started_total",
		"fleet rollouts begun")
	fm.rolloutsCompleted = r.Counter("merlin_fleet_rollouts_completed_total",
		"fleet rollouts promoted on every worker")
	fm.rolloutsFailed = r.Counter("merlin_fleet_rollouts_rolled_back_total",
		"fleet rollouts halted and rolled back")
	fm.reconciles = r.Counter("merlin_fleet_reconciles_total",
		"worker status reads the reconciler converged a worker from")
	fm.reg = r
	fm.replicaGauges = map[string]*metrics.Gauge{}
	fm.underReplicated = r.Gauge("merlin_fleet_under_replicated",
		"slots with fewer routable replicas than the replication target")
	fm.failovers = r.Counter("merlin_fleet_failovers_total",
		"traffic chunks served by a non-primary replica of their slot")
	fm.drains = r.Counter("merlin_fleet_drains_total",
		"slot copies drained off workers the placement does not name")
	fm.repairsStarted = r.Counter("merlin_fleet_repairs_started_total",
		"workers admitted to join an under-replicated slot")
	fm.repairsFailed = r.Counter("merlin_fleet_repairs_failed_total",
		"joins refused by the target's gate or lost with their target")
	fm.repairsDone = map[string]*metrics.Counter{}
	for _, mode := range []string{"gated", "bootstrap", "restore"} {
		fm.repairsDone[mode] = r.Counter("merlin_fleet_repairs_completed_total",
			"re-replication repairs finished", "mode", mode)
	}
	fm.repairBreakerOpens = r.Counter("merlin_fleet_repair_breaker_opens_total",
		"refused joins cleared by draining the target's copy before it joins again")
	fm.repairSteps = r.Histogram("merlin_fleet_repair_steps",
		"gate steps per completed join")
	fm.repairMillis = r.Histogram("merlin_fleet_repair_wall_ms",
		"wall-clock milliseconds per completed join")
	fm.cacheSyncs = r.Counter("merlin_fleet_cache_syncs_total",
		"superopt cache federation rounds run")
	fm.cachePulled = r.Counter("merlin_fleet_cache_entries_pulled_total",
		"verdict entries pulled from worker cache deltas")
	fm.cachePushed = r.Counter("merlin_fleet_cache_entries_pushed_total",
		"union verdict entries pushed back to workers")
	fm.cacheConflicts = r.Counter("merlin_fleet_cache_conflicts_total",
		"federation merges aborted by conflicting verdicts")
	fm.cacheSkips = r.Counter("merlin_fleet_cache_sync_skips_total",
		"workers skipped during a federation round (unreachable or no cache)")
	fm.cacheUnion = r.Gauge("merlin_fleet_cache_union_size",
		"verdict entries in the controller's merged federation cache")
	return fm
}

// gaugesLocked republishes the per-state worker gauges, the degraded flag and
// the placement gauges. Its inputs are worker health, membership and
// placements, so it runs wherever one of them changes (setHealthLocked,
// setPlacementLocked, dropPlacementLocked, Join, Leave, Recover) and on every
// Tick — never per RPC.
func (c *Controller) gaugesLocked() {
	if c.met == nil {
		return
	}
	counts := map[Health]int64{}
	degraded := int64(0)
	for _, w := range c.workers {
		counts[w.health]++
		if !w.health.eligible() {
			degraded = 1
		}
	}
	for _, h := range healthNames {
		c.met.workersState[h].Set(counts[h])
	}
	c.met.degraded.Set(degraded)

	// Placement gauges: live replicas per slot and the under-replicated
	// count.
	under := int64(0)
	want := c.repairWantLocked()
	for _, slot := range sortedKeys(c.placements) {
		pl := c.placements[slot]
		live := c.liveReplicasLocked(pl)
		g := c.met.replicaGauges[slot]
		if g == nil {
			g = c.met.reg.Gauge("merlin_fleet_replicas",
				"routable replicas per slot", "slot", slot)
			c.met.replicaGauges[slot] = g
		}
		g.Set(int64(live))
		if live < want {
			under++
		}
	}
	c.met.underReplicated.Set(under)
}
