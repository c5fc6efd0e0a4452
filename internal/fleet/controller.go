// Package fleet is the control plane over a set of worker merlinds. A
// Controller tracks worker health through a failure detector and per-worker
// circuit breaker, routes slot traffic across the fleet on a consistent-hash
// ring, runs rolling deploys that reuse each worker's canary state machine
// (halting and rolling the whole fleet back when any node's divergence gate
// fires), and journals its own state so a killed controller resumes an
// in-flight rollout instead of forgetting it.
//
// Every worker interaction goes through the Transport interface using the
// merlind line protocol, so the same controller drives real TCP daemons and,
// in its tests, in-process workers behind transports that drop, delay,
// duplicate, and partition at will.
//
// The protocol's server side lives here too, once: Worker implements every
// worker verb, and Serve is the read-line → auth → dispatch → reply loop.
// cmd/merlind runs Serve over stdin and (via Listen) its -control and
// -controller listeners; the tests' in-process workers run it per RPC.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"merlin/internal/journal"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
)

// Config tunes the controller. Zero fields take the documented defaults.
type Config struct {
	// RPCTimeout bounds every worker RPC (default 2s).
	RPCTimeout time.Duration
	// RetryBase / RetryMax shape the jittered exponential backoff between
	// read retries (defaults 50ms / 2s). Mutating RPCs never retry blindly —
	// the gate and the reconciler resolve their ambiguity from the slot
	// status they read next instead.
	RetryBase time.Duration
	RetryMax  time.Duration
	// DownAfter is the consecutive transport-failure count that demotes a
	// suspect worker to down (default 3); the first failure makes it suspect.
	DownAfter int
	// BreakerBase / BreakerMax bound the circuit breaker cooldown; it
	// starts at base and doubles per failed probe (defaults 500ms / 30s).
	BreakerBase time.Duration
	BreakerMax  time.Duration
	// VNodes is the number of hash-ring points per worker (default 64).
	VNodes int
	// TrafficBatch is the packets-per-chunk granularity of traffic fan-out
	// (default 8): each chunk routes independently and fails over whole.
	TrafficBatch int
	// MaxCanarySteps bounds how many canary-feed steps the rollout spends
	// on one worker before declaring it stalled (default 32).
	MaxCanarySteps int
	// CompactEvery compacts the controller journal once it holds this many
	// records, counting those found at open (default 128).
	CompactEvery int
	// MaxEvents caps the fleet event ring (default 128).
	MaxEvents int
	// Replication is the number of distinct workers each slot is placed on
	// (R, default 2): traffic routes only to a slot's replicas and the
	// reconciler repairs under-replication.
	Replication int
	// AuthToken, when non-empty, is prefixed to every worker RPC as
	// "auth <token> <cmd>"; workers sharing the token verify it in constant
	// time and refuse everything else.
	AuthToken string
	// Seed drives breaker/retry jitter deterministically.
	Seed uint64
	// Now is the controller clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Metrics, when set, receives fleet telemetry.
	Metrics *metrics.Registry
}

// readRetries is how many times an idempotent (read) RPC is retried after a
// transport failure.
const readRetries = 3

func (c Config) withDefaults() Config {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.BreakerBase <= 0 {
		c.BreakerBase = 500 * time.Millisecond
	}
	if c.BreakerMax <= 0 {
		c.BreakerMax = 30 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.TrafficBatch <= 0 {
		c.TrafficBatch = 8
	}
	if c.MaxCanarySteps <= 0 {
		c.MaxCanarySteps = 32
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 128
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 128
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// CatalogSlot is the fleet's blessed version of one slot: the source
// descriptor every worker must run and the fleet generation that blessed it.
// The catalog only advances when a rollout completes on every worker — a
// halted rollout leaves it untouched, which is what makes the reconciler
// roll a partitioned half-promoted worker back instead of forward.
type CatalogSlot struct {
	Name string `json:"name"`
	Src  string `json:"src"`
	Gen  int    `json:"gen"`
}

// installedRec records what the controller last confirmed on a worker:
// which fleet generation of a slot it promoted and the worker-local live
// generation that corresponds to it. The reconciler compares a worker's
// actual status against this and the catalog to decide what to do.
type installedRec struct {
	Worker   string `json:"worker"`
	Slot     string `json:"slot"`
	FleetGen int    `json:"fleetGen"`
	LocalGen int    `json:"localGen"`
	Gone     bool   `json:"gone,omitempty"` // tombstone: the slot was drained
}

// worker is the controller's view of one merlind.
type worker struct {
	name string
	addr string

	health    Health
	fails     int           // consecutive transport failures
	cooldown  time.Duration // current breaker cooldown (down only)
	openUntil time.Time     // breaker open until (down only)
	lastErr   string
}

// errBreakerOpen marks RPCs rejected locally without touching the network.
var errBreakerOpen = errors.New("circuit breaker open")

// Controller is the fleet control plane. All exported methods are safe for
// concurrent use: cheap state lives under mu (never held across an RPC),
// while stepMu serializes the multi-RPC compound operations (Tick, Step,
// Join) so the rollout state machine and the reconciler never interleave.
type Controller struct {
	cfg Config
	tr  Transport
	met *fleetMetrics

	mu         sync.Mutex
	workers    map[string]*worker
	catalog    map[string]*CatalogSlot
	installed  map[string]map[string]installedRec // worker → slot → rec
	placements map[string]*Placement              // slot → replicas
	rollout    *Rollout
	events     []Event
	eventSeq   int
	rng        uint64
	trafficSeq int
	rings      map[string]*ring // traffic rings by pool membership, see trafficRingLocked
	joins      map[string]*join // slot → repair in flight (reconcile.go)

	jl *journal.Ledger // persist.go

	stepMu sync.Mutex

	// Superopt cache federation state, touched only under stepMu (see
	// CacheSync). Watermarks are deliberately not journaled: after a
	// controller restart the first sync re-pulls full exports, and merging
	// is an idempotent union.
	fedCache *superopt.Cache
	fedSeqs  map[string]uint64 // worker → cacheexport watermark
}

// New returns a Controller speaking over tr.
func New(cfg Config, tr Transport) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:        cfg,
		tr:         tr,
		met:        newFleetMetrics(cfg.Metrics),
		workers:    map[string]*worker{},
		catalog:    map[string]*CatalogSlot{},
		installed:  map[string]map[string]installedRec{},
		placements: map[string]*Placement{},
		rings:      map[string]*ring{},
		joins:      map[string]*join{},
		rng:        cfg.Seed | 1,
	}
	c.jl = c.newLedger()
	return c
}

// splitmix64 advances the jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitterLocked spreads d over [d/2, 3d/2) deterministically.
func (c *Controller) jitterLocked(d time.Duration) time.Duration {
	c.rng = splitmix64(c.rng)
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(c.rng%uint64(d))
}

// ---- health & RPC --------------------------------------------------------

// rpc performs one worker RPC with breaker gating, per-call deadline, and —
// for idempotent reads — retry with jittered exponential backoff. The
// worker's health machine is fed from the transport outcome.
func (c *Controller) rpc(name, line string, read bool) ([]string, error) {
	return c.rpcWith(name, line, read, false)
}

// rpcWith is rpc with an escape hatch: ignoreBreaker sends to a down worker
// even inside its cooldown window. Traffic's last-resort path uses it when
// the alternative is dropping packets — a success then doubles as a probe.
func (c *Controller) rpcWith(name, line string, read, ignoreBreaker bool) ([]string, error) {
	line = AuthLine(c.cfg.AuthToken, line)
	c.mu.Lock()
	w := c.workers[name]
	if w == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: unknown worker %q", name)
	}
	addr := w.addr
	attempts := 1
	switch w.health {
	case Down:
		if !ignoreBreaker && c.cfg.Now().Before(w.openUntil) {
			c.mu.Unlock()
			if c.met != nil {
				c.met.breakerFast.Inc()
			}
			return nil, fmt.Errorf("fleet: worker %s: %w", name, errBreakerOpen)
		}
		// Cooldown expired (or overridden): this RPC is the half-open probe.
		// One shot.
		if c.met != nil {
			c.met.probes.Inc()
		}
	default:
		if read {
			attempts += readRetries
		}
	}
	// Pre-compute the jittered backoff schedule under mu so the RPC loop
	// never touches controller state.
	backoffs := make([]time.Duration, 0, attempts-1)
	d := c.cfg.RetryBase
	for i := 1; i < attempts; i++ {
		backoffs = append(backoffs, c.jitterLocked(d))
		if d *= 2; d > c.cfg.RetryMax {
			d = c.cfg.RetryMax
		}
	}
	c.mu.Unlock()

	var lines []string
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if c.met != nil {
				c.met.retries.Inc()
			}
			time.Sleep(backoffs[i-1])
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
		lines, err = c.tr.RPC(ctx, addr, line)
		cancel()
		if c.met != nil {
			c.met.rpcs.Inc()
		}
		if err == nil {
			break
		}
		if c.met != nil {
			c.met.rpcFailures.Inc()
		}
	}

	c.mu.Lock()
	if w := c.workers[name]; w != nil {
		if err != nil {
			c.rpcFailedLocked(w, err)
		} else {
			c.rpcSucceededLocked(w)
		}
	}
	c.mu.Unlock()
	return lines, err
}

func (c *Controller) rpcFailedLocked(w *worker, err error) {
	w.fails++
	w.lastErr = err.Error()
	switch w.health {
	case Healthy:
		c.setHealthLocked(w, Suspect, err.Error())
	case Suspect:
		if w.fails >= c.cfg.DownAfter {
			c.openBreakerLocked(w, c.cfg.BreakerBase, err.Error())
		}
	case Recovering:
		c.openBreakerLocked(w, c.cfg.BreakerBase, err.Error())
	case Down:
		// Failed probe: double the cooldown and re-open.
		next := w.cooldown * 2
		if next > c.cfg.BreakerMax {
			next = c.cfg.BreakerMax
		}
		c.openBreakerLocked(w, next, err.Error())
	}
}

func (c *Controller) rpcSucceededLocked(w *worker) {
	w.fails = 0
	w.lastErr = ""
	switch w.health {
	case Suspect:
		c.setHealthLocked(w, Healthy, "rpc recovered")
	case Down:
		// Probe answered: the worker is back, but it is not routed until
		// the reconciler has converged it (it may have restarted empty or
		// be carrying a half-promoted rollout).
		w.cooldown = 0
		c.setHealthLocked(w, Recovering, "probe succeeded")
	}
}

func (c *Controller) setHealthLocked(w *worker, h Health, why string) {
	if w.health == h {
		return
	}
	c.eventLocked(Event{Kind: EventHealthChange, Worker: w.name,
		Detail: fmt.Sprintf("%s → %s: %s", w.health, h, why)})
	w.health = h
	c.gaugesLocked()
}

func (c *Controller) openBreakerLocked(w *worker, cooldown time.Duration, why string) {
	w.cooldown = cooldown
	w.openUntil = c.cfg.Now().Add(c.jitterLocked(cooldown))
	c.setHealthLocked(w, Down, why)
}

// ---- membership ----------------------------------------------------------

// Join registers (or re-registers) a worker. Workers announce periodically;
// a repeat announce from a healthy worker at the same address is a cheap
// heartbeat no-op. A new worker, a changed address, or an announce from a
// worker with RPC failures on record (suspect or down — it may have restarted
// empty in between) all enter through Recovering: the controller reconciles
// the worker before routing to it.
func (c *Controller) Join(name, addr string) error {
	if name == "" || addr == "" {
		return errors.New("fleet: join needs a name and an address")
	}
	c.mu.Lock()
	w := c.workers[name]
	if w != nil && w.addr == addr && w.health == Healthy {
		c.mu.Unlock()
		return nil // heartbeat
	}
	if w == nil {
		w = &worker{name: name, addr: addr, health: Recovering}
		c.workers[name] = w
		c.eventLocked(Event{Kind: EventJoin, Worker: name, Detail: "addr=" + addr})
	} else {
		w.addr = addr
		w.fails = 0
		// An announce is the worker itself talking to us — as good as a
		// successful probe.
		c.setHealthLocked(w, Recovering, "worker announced")
	}
	c.jl.Append(func() any {
		return record{Kind: recWorker, Worker: &workerRec{Name: name, Addr: addr}}
	}, true)
	c.gaugesLocked()
	c.mu.Unlock()
	// stepMu serializes this reconcile against rollout steps, so a rejoining
	// worker can safely be caught up even on the slot a rollout owns.
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	return c.reconcile(name)
}

// Workers returns the known worker names, sorted.
func (c *Controller) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workerNamesLocked(func(*worker) bool { return true })
}

// Leave removes a worker from the fleet for good: membership, installed
// records, and every placement naming it are scrubbed (journaled), leaving
// the affected slots under-replicated for the reconciler to repair onto the
// survivors. Refused while a rollout is in flight — the rollout's worker
// order must stay meaningful.
func (c *Controller) Leave(name string) error {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workers[name] == nil {
		return fmt.Errorf("fleet: unknown worker %q", name)
	}
	if c.rollout != nil && !c.rollout.terminal() {
		return errors.New("fleet: cannot remove a worker during an in-flight rollout")
	}
	delete(c.workers, name)
	delete(c.installed, name)
	for _, slot := range sortedKeys(c.placements) {
		pl := c.placements[slot]
		if !slices.Contains(pl.Replicas, name) {
			continue
		}
		c.setPlacementLocked(slot, withoutStr(pl.Replicas, name), "worker "+name+" left")
	}
	c.jl.Append(func() any {
		return record{Kind: recWorker, Worker: &workerRec{Name: name, Gone: true}}
	}, true)
	c.eventLocked(Event{Kind: EventLeave, Worker: name, Detail: "removed from fleet"})
	c.gaugesLocked()
	return nil
}

func (c *Controller) workerNamesLocked(keep func(*worker) bool) []string {
	names := make([]string, 0, len(c.workers))
	for n, w := range c.workers {
		if keep(w) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ---- installed records ---------------------------------------------------

func (c *Controller) installedLocked(worker string) map[string]installedRec {
	m := c.installed[worker]
	if m == nil {
		m = map[string]installedRec{}
		c.installed[worker] = m
	}
	return m
}

func (c *Controller) setInstalledLocked(worker, slot string, fleetGen, localGen int) {
	rec := installedRec{Worker: worker, Slot: slot, FleetGen: fleetGen, LocalGen: localGen}
	c.installedLocked(worker)[slot] = rec
	c.jl.Append(func() any { return record{Kind: recInstalled, Installed: &rec} }, true)
}

// deleteInstalledLocked erases the confirmation record for a drained slot and
// journals a tombstone so recovery does not resurrect it.
func (c *Controller) deleteInstalledLocked(worker, slot string) {
	if _, ok := c.installed[worker][slot]; !ok {
		return
	}
	delete(c.installed[worker], slot)
	rec := installedRec{Worker: worker, Slot: slot, Gone: true}
	c.jl.Append(func() any { return record{Kind: recInstalled, Installed: &rec} }, true)
}

// ---- traffic -------------------------------------------------------------

// TrafficReport summarizes one fan-out.
type TrafficReport struct {
	Sent     int // packets that reached some worker
	Rerouted int // chunks that failed over past their ring owner
	Dropped  int // packets no worker accepted
}

// Traffic fans n synthetic packets for slot across the slot's routable
// replicas in TrafficBatch chunks. Each chunk hashes to an owner on the
// consistent ring over those replicas; a transport or application failure
// fails the chunk over down the ring's successor order, so a dead replica's
// traffic lands on its surviving peers. Only when no worker anywhere accepts
// the chunk is it counted dropped — graceful degradation, not an error.
func (c *Controller) Traffic(slot string, n int) TrafficReport {
	var rep TrafficReport
	if n <= 0 {
		return rep
	}
	c.mu.Lock()
	replicas := c.replicasLocked(slot)
	pool := make([]string, 0, len(replicas))
	for _, rn := range replicas {
		if w := c.workers[rn]; w != nil && w.health.eligible() {
			pool = append(pool, rn)
		}
	}
	r := c.trafficRingLocked(pool)
	batch := c.cfg.TrafficBatch
	chunks := (n + batch - 1) / batch
	seq := c.trafficSeq
	c.trafficSeq += chunks
	c.mu.Unlock()

	for i := 0; i < chunks; i++ {
		size := batch
		if i == chunks-1 {
			size = n - batch*(chunks-1)
		}
		key := slot + "/" + strconv.Itoa(seq+i)
		cmd := "traffic " + slot + " " + strconv.Itoa(size)
		sent := false
		owners := r.lookup(key, len(pool))
		for hop, name := range owners {
			lines, err := c.rpc(name, cmd, false)
			if err == nil {
				if _, ok := ReplyOK(lines); ok {
					if hop > 0 {
						rep.Rerouted++
						if c.met != nil {
							c.met.reroutes.Inc()
							c.met.failovers.Inc()
						}
					}
					rep.Sent += size
					if c.met != nil {
						c.met.trafficSent.Add(uint64(size))
					}
					sent = true
					break
				}
			}
		}
		if !sent {
			// Last resort before dropping: every routable replica failed (or
			// none existed), so try everyone else — unroutable replicas
			// first, then non-replicas that may still hold an undrained
			// copy — circuit breakers notwithstanding. A transiently-faulted
			// worker often answers — packet loss is worse than hammering a
			// dead one — and a success feeds the health machine like any
			// probe.
			c.mu.Lock()
			var rest []string
			for _, name := range append(replicas, c.workerNamesLocked(func(*worker) bool { return true })...) {
				if !slices.Contains(owners, name) && !slices.Contains(rest, name) && c.workers[name] != nil {
					rest = append(rest, name)
				}
			}
			c.mu.Unlock()
			for _, name := range rest {
				lines, err := c.rpcWith(name, cmd, false, true)
				if err != nil {
					continue
				}
				if _, ok := ReplyOK(lines); ok {
					rep.Rerouted++
					rep.Sent += size
					if c.met != nil {
						c.met.reroutes.Inc()
						c.met.lastResort.Inc()
						c.met.failovers.Inc()
						c.met.trafficSent.Add(uint64(size))
					}
					sent = true
					break
				}
			}
		}
		if !sent {
			rep.Dropped += size
			if c.met != nil {
				c.met.dropped.Add(uint64(size))
			}
		}
	}
	return rep
}

// ringMemoCap bounds the memoised traffic rings. A fleet has one ring per
// distinct routable replica set, a handful in practice; past the cap the memo
// starts over rather than tracking which entry is oldest.
const ringMemoCap = 32

// trafficRingLocked returns the consistent-hash ring over pool. A ring is a
// pure function of its membership and VNodes, so it is built once per
// membership and shared until the memo starts over; routing for a given fleet
// shape is what buildRing alone would give. Sorts pool.
func (c *Controller) trafficRingLocked(pool []string) *ring {
	sort.Strings(pool)
	key := strings.Join(pool, "\x00")
	if r := c.rings[key]; r != nil {
		return r
	}
	if len(c.rings) >= ringMemoCap {
		clear(c.rings)
	}
	r := buildRing(pool, c.cfg.VNodes)
	c.rings[key] = r
	return r
}

// ---- status --------------------------------------------------------------

// WorkerInfo is one worker's row in the fleet status.
type WorkerInfo struct {
	Name    string
	Addr    string
	Health  Health
	Fails   int
	Breaker time.Duration // remaining breaker cooldown (down only)
	LastErr string
}

// PlacementView is one slot's placement row in the fleet status.
type PlacementView struct {
	Slot     string
	Replicas []string
	Live     int // replicas currently routable
	Ver      int
}

// Status is a point-in-time fleet summary.
type Status struct {
	Workers    []WorkerInfo
	Catalog    []CatalogSlot
	Placements []PlacementView
	Rollout    *Rollout // copy; nil when none was ever started
	Degraded   bool
	Journal    journal.Health
}

// FleetStatus captures the controller's current view.
func (c *Controller) FleetStatus() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st Status
	now := c.cfg.Now()
	for _, n := range c.workerNamesLocked(func(*worker) bool { return true }) {
		w := c.workers[n]
		wi := WorkerInfo{Name: n, Addr: w.addr, Health: w.health,
			Fails: w.fails, LastErr: w.lastErr}
		if w.health == Down && w.openUntil.After(now) {
			wi.Breaker = w.openUntil.Sub(now)
		}
		if !w.health.eligible() {
			st.Degraded = true
		}
		st.Workers = append(st.Workers, wi)
	}
	for _, n := range sortedKeys(c.catalog) {
		st.Catalog = append(st.Catalog, *c.catalog[n])
	}
	for _, n := range sortedKeys(c.placements) {
		pl := c.placements[n]
		st.Placements = append(st.Placements, PlacementView{
			Slot:     n,
			Replicas: append([]string(nil), pl.Replicas...),
			Live:     c.liveReplicasLocked(pl),
			Ver:      pl.Ver,
		})
	}
	if c.rollout != nil {
		cp := c.rollout.clone()
		st.Rollout = &cp
	}
	st.Journal = c.jl.Health()
	return st
}

// Lines renders the status in the merlind line-protocol style, one line per
// worker / slot / rollout, so the daemon and tests share formatting.
func (s Status) Lines() []string {
	var out []string
	for _, w := range s.Workers {
		l := fmt.Sprintf("worker=%s addr=%s health=%s fails=%d", w.Name, w.Addr, w.Health, w.Fails)
		if w.Breaker > 0 {
			l += fmt.Sprintf(" breaker=%s", w.Breaker.Round(time.Millisecond))
		}
		if w.LastErr != "" {
			l += fmt.Sprintf(" err=%q", w.LastErr)
		}
		out = append(out, l)
	}
	for _, cs := range s.Catalog {
		out = append(out, fmt.Sprintf("slot=%s gen=%d src=%q", cs.Name, cs.Gen, cs.Src))
	}
	for _, pv := range s.Placements {
		out = append(out, fmt.Sprintf("placement slot=%s ver=%d live=%d/%d replicas=%s",
			pv.Slot, pv.Ver, pv.Live, len(pv.Replicas), strings.Join(pv.Replicas, ",")))
	}
	if r := s.Rollout; r != nil {
		l := fmt.Sprintf("rollout slot=%s gen=%d phase=%s worker=%d/%d promoted=%d",
			r.Slot, r.Gen, r.Phase, r.Idx, len(r.Order), len(r.Promoted))
		if r.Reason != "" {
			l += fmt.Sprintf(" reason=%q", r.Reason)
		}
		out = append(out, l)
	}
	if s.Journal.Configured {
		out = append(out, s.Journal.String())
	}
	out = append(out, fmt.Sprintf("degraded=%v", s.Degraded))
	return out
}

// ---- aggregated metrics --------------------------------------------------

// WriteMetrics writes the controller's own registry followed by every
// routable worker's scrape re-labeled with worker="<name>", giving a single
// fleet-wide exposition endpoint. Unreachable workers are skipped — their
// absence is itself visible through merlin_fleet_workers{state="down"}.
func (c *Controller) WriteMetrics(w io.Writer) error {
	if c.cfg.Metrics != nil {
		if err := c.cfg.Metrics.WriteText(w); err != nil {
			return err
		}
	}
	c.mu.Lock()
	names := c.workerNamesLocked(func(wk *worker) bool { return wk.health.eligible() })
	c.mu.Unlock()
	for _, n := range names {
		lines, err := c.rpc(n, "metrics", true)
		if err != nil {
			continue
		}
		if _, ok := ReplyOK(lines); !ok {
			continue
		}
		body := strings.Join(lines[:len(lines)-1], "\n")
		if err := metrics.RelabelText(w, strings.NewReader(body), "worker", n); err != nil {
			return err
		}
	}
	return nil
}

// ---- reply parsing -------------------------------------------------------

type deployReply struct {
	liveGen int
	candGen int
}

// parseDeployReply parses "ok deploy <slot> stage=<s> live=genN
// [candidate=genM]".
func parseDeployReply(lines []string) (deployReply, bool) {
	last, ok := ReplyOK(lines)
	if !ok || !strings.HasPrefix(last, "ok deploy ") {
		return deployReply{}, false
	}
	var rep deployReply
	for _, kv := range strings.Fields(last)[2:] {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "live":
			rep.liveGen = genOf(v)
		case "candidate":
			rep.candGen = genOf(v)
		}
	}
	return rep, true
}

// parseLiveGen extracts live=genN from an ok line (promote / rollback).
func parseLiveGen(line string) int {
	for _, kv := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(kv, "live="); ok {
			return genOf(v)
		}
	}
	return 0
}

func genOf(v string) int {
	v = strings.TrimPrefix(v, "gen")
	n, _ := strconv.Atoi(v)
	return n
}

func lastLine(lines []string) string {
	if len(lines) == 0 {
		return "(no reply)"
	}
	return lines[len(lines)-1]
}
