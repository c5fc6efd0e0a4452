package fleet

// Health is a worker's position in the controller's failure-detection state
// machine. Transitions are driven exclusively by RPC outcomes (transport
// failures, never application-level "err" replies), probe results and
// announces — never by what a worker runs in one slot:
//
//	healthy ──fail──▶ suspect ──fails ≥ DownAfter──▶ down
//	suspect ──success──▶ healthy
//	down ──probe success or announce──▶ recovering ──reconciled──▶ healthy
//	recovering ──fail──▶ down
//
// Down workers are excluded from the routing ring (their slots re-route to
// the remaining workers) and sit behind an open circuit breaker: RPCs to
// them fail fast without touching the network until the breaker's cooldown
// expires, at which point a single probe is allowed through (half-open).
// Every probe failure doubles the cooldown up to BreakerMax, with
// deterministic seeded jitter so a fleet of controllers does not probe in
// lockstep.
type Health int

const (
	// Healthy: serving traffic, breaker closed.
	Healthy Health = iota
	// Suspect: at least one recent consecutive transport failure. Still
	// routed (the failure may be transient), but the next failures
	// escalate to down.
	Suspect
	// Down: the breaker is open; the worker receives no traffic and its
	// hash-ring points are withdrawn. Only cooldown-gated probes reach it.
	Down
	// Recovering: a probe succeeded or the worker announced itself; it
	// answers RPCs again but is not routed until one reconciler pass has
	// converged its slots (a rejoining worker may have restarted empty, or
	// be carrying a half-promoted program from a rollout that failed while
	// it was partitioned away).
	Recovering
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return "unknown"
}

// healthNames enumerates the states for per-state gauges.
var healthNames = []Health{Healthy, Suspect, Down, Recovering}

// eligible reports whether a worker in this state receives routed traffic.
func (h Health) eligible() bool { return h == Healthy || h == Suspect }
