// Package lifecycle manages the runtime life of optimized eBPF programs.
// Merlin's bytecode tier rewrites programs just before the bpf() syscall;
// this package models what happens after it: named program slots whose
// freshly built candidates move staged → shadow → canary → live, with the
// incumbent vm.Machine serving every packet until the candidate is
// atomically promoted. In shadow and canary the candidate runs on mirrored
// copies of the live traffic and is rejected on any return-value divergence,
// runtime fault, or cycle-cost regression beyond a configurable slack — the
// online continuation of the build-time differential validation in
// internal/guard. A per-slot watchdog quarantines deployments that fault or
// blow their instruction/cycle budget at any stage and rebuilds them with
// exponential backoff, degrading to the last-known-good program or the clang
// baseline so the slot never stops serving.
package lifecycle

import (
	"fmt"
	"sync"
	"time"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/ir"
	"merlin/internal/journal"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// Config parameterizes a Manager.
type Config struct {
	// ShadowRuns / CanaryRuns are the clean mirrored runs a candidate needs
	// to clear each stage (default 32 each).
	ShadowRuns int
	CanaryRuns int
	// CycleSlack is the tolerated relative mean cycle-cost regression of the
	// candidate over the canary window (default 0.10 = 10%).
	CycleSlack float64
	// InsnBudget / CycleBudget cap a single run of any deployment — live or
	// mirrored. Exceeding either quarantines a candidate and degrades an
	// incumbent. Zero disables the respective cap.
	InsnBudget  uint64
	CycleBudget uint64
	// MaxRetries bounds the watchdog's rebuild attempts per quarantine
	// episode (default 3).
	MaxRetries int
	// BackoffBase is the first rebuild delay; it doubles per attempt
	// (default 100ms).
	BackoffBase time.Duration
	// AutoPromote hot-swaps a candidate as soon as it clears canary instead
	// of waiting for an explicit Promote.
	AutoPromote bool
	// VM configures every machine the manager instantiates.
	VM vm.Config
	// Now is the watchdog clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// MaxEvents caps each slot's event ring (default 64).
	MaxEvents int
	// Metrics, when set, receives the manager's telemetry: per-slot
	// serve/mirror/divergence counters, canary cycle histograms, gauges,
	// and per-EventKind counters drained losslessly from the event rings.
	// Nil disables recording. Pair it with VM.Metrics to also capture
	// per-run machine telemetry.
	Metrics *metrics.Registry
	// Journal, when set, makes slot state durable: every stage transition,
	// generation bump, quarantine ledger change, and the serialized bytecode
	// and map contents of the live / last-known-good / baseline deployments
	// are appended as they happen (fsynced on stage transitions), and
	// Manager.Recover replays snapshot+journal on startup. Nil keeps the
	// manager fully in-memory (the previous behavior).
	Journal *journal.Log
	// CompactEvery, JournalDegradeAfter, JournalRetryBase and
	// JournalRetryMax tune the journal.Ledger: compact after this many
	// records (default 256); after this many consecutive write failures
	// detach the journal and serve in memory (default 3); probe for
	// re-attachment after JournalRetryBase, doubling up to JournalRetryMax
	// (defaults 1s / 1m).
	CompactEvery        int
	JournalDegradeAfter int
	JournalRetryBase    time.Duration
	JournalRetryMax     time.Duration
	// ResolveSource, when set, reattaches build Sources to recovered slots
	// from the opaque DeployOptions.SourceDesc journaled with each slot.
	// Without it (or on a resolve error) a recovered slot still serves its
	// journaled program, but the watchdog cannot rebuild it.
	ResolveSource func(desc string) (Source, error)
}

func (c Config) withDefaults() Config {
	if c.ShadowRuns <= 0 {
		c.ShadowRuns = 32
	}
	if c.CanaryRuns <= 0 {
		c.CanaryRuns = 32
	}
	if c.CycleSlack <= 0 {
		c.CycleSlack = 0.10
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 64
	}
	return c
}

// DeployOptions tune one slot's deployment policy.
type DeployOptions struct {
	// CanaryFraction in [0, 1] routes a deterministic hash-based share of
	// live packets to a canary-stage candidate: both programs still run and
	// divergence still demotes the candidate, but for the routed share the
	// canary's verdict is the one answered. 0 (the default) keeps canary
	// mirror-only.
	CanaryFraction float64
	// SourceDesc is an opaque descriptor of the slot's Source, journaled
	// with the slot so Config.ResolveSource can reattach it after Recover.
	SourceDesc string
}

// Source produces a deployable build. The watchdog re-invokes it on every
// quarantine retry, so a Source must be safe to call repeatedly.
type Source func() (*core.Result, error)

// ModuleSource adapts an IR module to a Source via core.BuildForDeploy.
func ModuleSource(mod *ir.Module, fnName string, opts core.Options) Source {
	return func() (*core.Result, error) {
		return core.BuildForDeploy(mod, fnName, opts)
	}
}

// deployment is one build loaded into a machine. The machine accumulates
// warm state (maps, caches) across runs, so a promoted candidate has already
// soaked on mirrored traffic.
type deployment struct {
	prog    *ebpf.Program
	machine *vm.Machine
	gen     int
	stage   Stage
	cleared bool
	// Clean mirrored runs in the current stage, plus the cycle sums backing
	// the canary regression gate.
	runs       int
	incCycles  uint64
	candCycles uint64
}

// quarantineState is the watchdog's per-slot backoff ledger.
type quarantineState struct {
	attempts  int
	notBefore time.Time
	dead      bool
	reason    string
}

// slot is one named program slot.
type slot struct {
	name    string
	source  Source
	opts    DeployOptions
	nextGen int

	live     *deployment // serving; nil until the first deploy
	lastGood *deployment // previous incumbent, for rollback
	baseline *deployment // clang-only fallback from the last good build
	cand     *deployment // staged/shadow/canary candidate

	quarantine *quarantineState

	served       uint64
	mirrored     uint64
	canaryRouted uint64
	events       []Event
	seq          int

	// mctx / mpkt are the slot's scratch buffers for mirrored packets and
	// fallback replay: one allocation amortized over the slot's lifetime
	// instead of two fresh copies per served packet. bctx / bpkt are their
	// batch-serving counterparts: pristine per-packet copies taken before a
	// ServeBatch run so a mid-batch incumbent fault can replay the batch
	// tail against the fallback.
	mctx, mpkt []byte
	bctx, bpkt [][]byte

	// met holds the slot's registry handles (nil when metrics are off);
	// metricsSeq is the drain watermark — the highest event Seq already
	// counted into the registry.
	met        *slotMetrics
	metricsSeq int
}

// Manager owns a set of named program slots. All methods are safe for
// concurrent use; the hot-swap in Promote is a single pointer update under
// the manager lock, so there is no serving gap.
type Manager struct {
	mu    sync.Mutex
	cfg   Config
	slots map[string]*slot
	order []string

	// jl is the durable ledger (persist.go); without Config.Journal it
	// keeps the manager in memory until AttachJournal.
	jl *journal.Ledger
}

// NewManager returns a Manager with cfg's zero fields defaulted.
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg.withDefaults(), slots: map[string]*slot{}}
	m.jl = m.newLedger()
	return m
}

// Deploy builds src into a fresh candidate for the named slot (creating the
// slot if needed). The first deployment of a slot goes live immediately —
// there is no incumbent to mirror against; every later one is staged and
// must earn promotion through shadow and canary. Build-contained pass
// failures are surfaced as EventBuildFault events; an outright build failure
// quarantines the slot for a watchdog retry.
func (m *Manager) Deploy(name string, src Source) error {
	return m.DeployWith(name, src, DeployOptions{})
}

// DeployWith is Deploy with per-slot policy options.
func (m *Manager) DeployWith(name string, src Source, opts DeployOptions) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slotLocked(name)
	s.source = src
	s.opts = opts
	s.quarantine = nil
	s.cand = nil
	err := m.buildCandidateLocked(s)
	// A failed build still mutated the ledger (generation bump, quarantine);
	// journal either way, fsynced — deploys are stage transitions.
	m.journalSlotLocked(s, true)
	return err
}

// slotLocked returns (creating if needed) the named slot.
func (m *Manager) slotLocked(name string) *slot {
	s := m.slots[name]
	if s == nil {
		s = &slot{name: name}
		if m.cfg.Metrics != nil {
			s.met = newSlotMetrics(m.cfg.Metrics, name)
		}
		m.slots[name] = s
		m.order = append(m.order, name)
	}
	return s
}

// buildCandidateLocked runs the slot's source and stages the result.
func (m *Manager) buildCandidateLocked(s *slot) error {
	res, err := s.source()
	if err != nil {
		m.quarantineLocked(s, StageStaged, "", fmt.Sprintf("build failed: %v", err))
		return fmt.Errorf("lifecycle: slot %s: build: %w", s.name, err)
	}
	for _, pf := range res.PassFailures {
		m.eventLocked(s, Event{Kind: EventBuildFault, Stage: StageStaged,
			Generation: s.nextGen + 1, Detail: pf.String()})
	}
	if len(res.Culprits) > 0 {
		m.eventLocked(s, Event{Kind: EventBuildFault, Stage: StageStaged,
			Generation: s.nextGen + 1,
			Detail:     fmt.Sprintf("verifier culprits %v (%s fallback)", res.Culprits, res.FellBack)})
	}

	s.nextGen++
	d, err := m.newDeployment(res.Prog, s.nextGen)
	if err != nil {
		m.quarantineLocked(s, StageStaged, "", fmt.Sprintf("load failed: %v", err))
		return fmt.Errorf("lifecycle: slot %s: load: %w", s.name, err)
	}
	if res.Baseline != nil {
		// The clang baseline is the slot's fallback of last resort; keep the
		// one from the most recent successful build.
		if bl, err := m.newDeployment(res.Baseline, 0); err == nil {
			s.baseline = bl
		}
	}

	if s.live == nil {
		s.live = d
		d.stage = StageLive
		m.eventLocked(s, Event{Kind: EventPromoted, Stage: StageLive, Generation: d.gen,
			Detail: "initial deployment, no incumbent to shadow"})
		return nil
	}
	d.stage = StageStaged
	s.cand = d
	m.eventLocked(s, Event{Kind: EventDeployed, Stage: StageStaged, Generation: d.gen,
		Detail: fmt.Sprintf("NI %d vs live NI %d", d.prog.NI(), s.live.prog.NI())})
	return nil
}

func (m *Manager) newDeployment(prog *ebpf.Program, gen int) (*deployment, error) {
	mach, err := vm.New(prog, m.cfg.VM)
	if err != nil {
		return nil, err
	}
	return &deployment{prog: prog, machine: mach, gen: gen}, nil
}

// Serve runs one unit of traffic through the slot's live program and — when
// a candidate is in shadow or canary — mirrors a pristine copy of the input
// through the candidate, replaying the incumbent's helper-nondeterminism
// stream so divergence is attributable to the code. The incumbent's verdict
// is always the one returned; an incumbent fault degrades the slot to the
// last-known-good program or the baseline and answers from there.
func (m *Manager) Serve(name string, ctx, pkt []byte) (int64, vm.Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.serveSlotLocked(name)
	if err != nil {
		return 0, vm.Stats{}, err
	}
	// Journal any transition this packet triggers (stage advance,
	// quarantine, divergence rejection, degradation) — transitions are rare,
	// so the steady-state serve path never touches the journal.
	seqBefore := s.seq
	defer func() {
		if s.seq != seqBefore {
			m.journalSlotLocked(s, true)
		}
	}()
	return m.servePacketLocked(s, ctx, pkt)
}

// serveSlotLocked resolves the slot for a serve call and runs the
// per-call prologue shared by Serve and ServeBatch: quarantine retry and
// the nothing-deployed check.
func (m *Manager) serveSlotLocked(name string) (*slot, error) {
	s := m.slots[name]
	if s == nil {
		return nil, fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	m.retryLocked(s)
	if s.live == nil {
		return nil, fmt.Errorf("lifecycle: slot %q has nothing deployed", name)
	}
	return s, nil
}

// servePacketLocked is the per-packet serve core: one incumbent run plus
// mirroring, gating and degradation. Serve calls it once; ServeBatch calls
// it for every packet whenever batch semantics need the sequential path.
func (m *Manager) servePacketLocked(s *slot, ctx, pkt []byte) (int64, vm.Stats, error) {
	if s.cand != nil && s.cand.stage == StageStaged {
		s.cand.stage = StageShadow
		m.eventLocked(s, Event{Kind: EventStageAdvance, Stage: StageShadow,
			Generation: s.cand.gen, Detail: "staged → shadow"})
	}
	mirroring := s.cand != nil &&
		(s.cand.stage == StageShadow || s.cand.stage == StageCanary)

	// Programs rewrite ctx/pkt in place, so the mirror (and a fallback
	// replay after an incumbent fault) needs pristine copies taken before
	// the incumbent runs. The slot's scratch buffers are reused across
	// packets: zero copies allocated on the steady-state serve path.
	var mctx, mpkt []byte
	if mirroring || s.lastGood != nil || s.baseline != nil {
		s.mctx = append(s.mctx[:0], ctx...)
		s.mpkt = append(s.mpkt[:0], pkt...)
		mctx, mpkt = s.mctx, s.mpkt
	}
	var rng, ktime uint64
	if mirroring {
		rng, ktime = s.live.machine.HelperState()
	}

	rv, st, err := s.live.machine.Run(ctx, pkt)
	if err != nil || m.overBudget(st) {
		return m.degradeLocked(s, mctx, mpkt, err, st)
	}
	s.served++
	s.met.servedInc()

	if mirroring {
		cand := s.cand
		// Deterministic hash-based canary routing: decided before the runs
		// from the pristine input bytes, so the same packet always routes
		// the same way regardless of timing.
		routed := cand.stage == StageCanary && s.opts.CanaryFraction > 0 &&
			routeHash(mctx, mpkt) < s.opts.CanaryFraction
		cand.machine.SetHelperState(rng, ktime)
		crv, cst, cerr := cand.machine.Run(mctx, mpkt)
		s.mirrored++
		s.met.mirroredInc()
		if cand.stage == StageCanary {
			s.met.observeCanaryCycles(cst.Cycles)
		}
		switch {
		case cerr != nil:
			kind, detail := classifyFault(cerr, cst)
			m.quarantineLocked(s, cand.stage, kind, detail)
		case m.overBudget(cst):
			m.quarantineLocked(s, cand.stage, FaultBudget,
				fmt.Sprintf("budget blown: %d insns / %d cycles", cst.Instructions, cst.Cycles))
		case crv != rv:
			s.met.divergenceInc()
			m.rejectLocked(s, fmt.Sprintf("return divergence: incumbent %d, candidate %d", rv, crv))
		default:
			cand.runs++
			cand.incCycles += st.Cycles
			cand.candCycles += cst.Cycles
			m.advanceLocked(s)
			if routed {
				// The canary cleared every gate for this packet; its verdict
				// is the one answered. The incumbent's view of the traffic
				// (maps, helper stream) is unchanged — it already ran.
				s.canaryRouted++
				s.met.canaryRoutedInc()
				return crv, cst, nil
			}
		}
	}
	return rv, st, nil
}

// ServeBatch serves a batch of traffic through the slot under one lock
// acquisition and — in the steady state, with no candidate being mirrored —
// a single RunBatch call on the live machine, which is where the batch
// engine's throughput win comes from. Results land in out, one slot per
// packet; the returned count is the number of packets whose Errs slot is
// non-nil after degradation handling (matching vm.RunBatch's convention).
//
// Semantics match len(ctxs) sequential Serve calls: a mid-batch incumbent
// fault degrades the slot exactly as Serve would, the faulting packet is
// answered by the fallback when one exists, and the batch tail is replayed
// from pristine input copies against the new live program. When a candidate
// is staged, shadowing or canarying, the batch transparently takes the
// per-packet path so mirroring, gating and canary routing behave
// identically to Serve.
//
// One deliberate seam: the batch runs ahead of fault detection, so when a
// fault does degrade the slot, the packets after it have already run once
// on the now-discarded incumbent. That machine is unreachable after the
// swap — its maps, caches and helper state go with it — but a vm-level
// Metrics sink shared across deployments will have counted the speculative
// runs.
func (m *Manager) ServeBatch(name string, ctxs, pkts [][]byte, out *vm.Batch) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.serveSlotLocked(name)
	if err != nil {
		return 0, err
	}
	seqBefore := s.seq
	defer func() {
		if s.seq != seqBefore {
			m.journalSlotLocked(s, true)
		}
	}()

	n := len(ctxs)
	// A candidate in flight means every packet interleaves an incumbent run
	// with a mirrored candidate run and the routing/gating decisions between
	// them: take the sequential path.
	if s.cand != nil {
		out.Reset(n)
		faults := 0
		for i := 0; i < n; i++ {
			out.RV[i], out.Stats[i], out.Errs[i] = m.servePacketLocked(s, ctxs[i], pktAt(pkts, i))
			if out.Errs[i] != nil {
				faults++
			}
		}
		return faults, nil
	}

	// Pristine copies for fallback replay; outer and inner buffers are
	// reused across batches, so the steady state allocates nothing.
	hasFB := s.lastGood != nil || s.baseline != nil
	if hasFB {
		s.bctx = copyBatchInto(s.bctx, ctxs, n)
		s.bpkt = copyBatchInto(s.bpkt, pkts, n)
	}

	s.live.machine.RunBatch(ctxs, pkts, out)

	// Find the first packet that would have tripped Serve's watchdog.
	bad := -1
	for i := 0; i < n; i++ {
		if out.Errs[i] != nil || m.overBudget(out.Stats[i]) {
			bad = i
			break
		}
	}
	if bad < 0 {
		s.served += uint64(n)
		s.met.servedAdd(uint64(n))
		return 0, nil
	}

	// The packets before the fault served normally.
	s.served += uint64(bad)
	s.met.servedAdd(uint64(bad))

	faults := 0
	liveBefore := s.live
	var fctx, fpkt []byte
	if hasFB {
		fctx, fpkt = s.bctx[bad], s.bpkt[bad]
	}
	out.RV[bad], out.Stats[bad], out.Errs[bad] =
		m.degradeLocked(s, fctx, fpkt, out.Errs[bad], out.Stats[bad])
	if out.Errs[bad] != nil {
		faults++
	}

	if s.live != liveBefore {
		// The slot degraded: the batch tail already ran on the discarded
		// incumbent and mutated the caller's buffers. Restore them from the
		// pristine copies and replay each packet against the new live
		// program — a further fault degrades again, exactly as Serve would.
		for i := bad + 1; i < n; i++ {
			copy(ctxs[i], s.bctx[i])
			var pkt []byte
			if i < len(pkts) {
				copy(pkts[i], s.bpkt[i])
				pkt = pkts[i]
			}
			out.RV[i], out.Stats[i], out.Errs[i] = m.servePacketLocked(s, ctxs[i], pkt)
			if out.Errs[i] != nil {
				faults++
			}
		}
		return faults, nil
	}

	// No usable fallback, so the live program is unchanged and the batch
	// results for the tail stand — they are exactly what sequential serves
	// would have produced. Route the remaining bad packets through the same
	// bookkeeping Serve applies (events only; degradeLocked cannot find a
	// fallback it just failed to find, and mutates nothing when it doesn't).
	for i := bad + 1; i < n; i++ {
		if out.Errs[i] != nil || m.overBudget(out.Stats[i]) {
			out.RV[i], out.Stats[i], out.Errs[i] =
				m.degradeLocked(s, nil, nil, out.Errs[i], out.Stats[i])
			if out.Errs[i] != nil {
				faults++
			}
			continue
		}
		s.served++
		s.met.servedInc()
	}
	return faults, nil
}

// pktAt indexes a packet list that may be shorter than the context list
// (tracepoint batches pass nil packets).
func pktAt(pkts [][]byte, i int) []byte {
	if i < len(pkts) {
		return pkts[i]
	}
	return nil
}

// copyBatchInto refreshes dst as pristine copies of the first n entries of
// src (missing entries become empty), reusing outer and inner buffers.
func copyBatchInto(dst, src [][]byte, n int) [][]byte {
	for len(dst) < n {
		dst = append(dst, nil)
	}
	for i := 0; i < n; i++ {
		var b []byte
		if i < len(src) {
			b = src[i]
		}
		dst[i] = append(dst[i][:0], b...)
	}
	return dst
}

// routeHash maps a packet deterministically to [0, 1) via FNV-1a over the
// pristine ctx and pkt bytes. Allocation-free.
func routeHash(ctx, pkt []byte) float64 {
	h := uint64(14695981039346656037)
	for _, b := range ctx {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for _, b := range pkt {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// advanceLocked moves a clean candidate through the stage gates.
func (m *Manager) advanceLocked(s *slot) {
	c := s.cand
	switch c.stage {
	case StageShadow:
		if c.runs >= m.cfg.ShadowRuns {
			c.stage = StageCanary
			c.runs, c.incCycles, c.candCycles = 0, 0, 0
			m.eventLocked(s, Event{Kind: EventStageAdvance, Stage: StageCanary,
				Generation: c.gen, Detail: "shadow → canary"})
		}
	case StageCanary:
		if c.runs < m.cfg.CanaryRuns || c.cleared {
			return
		}
		limit := float64(c.incCycles) * (1 + m.cfg.CycleSlack)
		if float64(c.candCycles) > limit {
			m.rejectLocked(s, fmt.Sprintf(
				"cycle regression: candidate %d vs incumbent %d cycles over %d runs (slack %.0f%%)",
				c.candCycles, c.incCycles, c.runs, m.cfg.CycleSlack*100))
			return
		}
		c.cleared = true
		m.eventLocked(s, Event{Kind: EventStageAdvance, Stage: StageCanary,
			Generation: c.gen,
			Detail: fmt.Sprintf("canary cleared (%d vs %d cycles); promotable",
				c.candCycles, c.incCycles)})
		if m.cfg.AutoPromote {
			m.promoteLocked(s, "auto-promote after canary")
		}
	}
}

// Promote atomically hot-swaps the slot's candidate to live. Unless force is
// set the candidate must have cleared canary. The previous incumbent is kept
// as last-known-good for Rollback.
func (m *Manager) Promote(name string, force bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	if s.cand == nil {
		return fmt.Errorf("lifecycle: slot %q has no candidate to promote", name)
	}
	if !s.cand.cleared && !force {
		return fmt.Errorf("lifecycle: slot %q candidate gen %d has not cleared canary (stage %s, %d clean runs)",
			name, s.cand.gen, s.cand.stage, s.cand.runs)
	}
	why := "promoted after canary"
	if !s.cand.cleared {
		why = "forced promotion"
	}
	m.promoteLocked(s, why)
	m.journalSlotLocked(s, true)
	return nil
}

// promoteLocked hot-swaps the candidate to live. Before the cutover the
// incumbent's map state is transferred into the candidate's machine
// (matched by name and spec), so the promoted program continues from the
// incumbent's counters instead of zeroed maps. The swap itself remains a
// single pointer update — there is no serving gap.
func (m *Manager) promoteLocked(s *slot, why string) {
	if n, err := s.cand.machine.TransferMapsFrom(s.live.machine); err != nil {
		why += fmt.Sprintf(" (map transfer failed after %d maps: %v)", n, err)
	} else if n > 0 {
		why += fmt.Sprintf(" (%d maps transferred)", n)
	}
	s.lastGood = s.live
	s.live = s.cand
	s.live.stage = StageLive
	s.cand = nil
	s.quarantine = nil
	m.eventLocked(s, Event{Kind: EventPromoted, Stage: StageLive,
		Generation: s.live.gen, Detail: why})
}

// Rollback restores the previous live program and discards any in-flight
// candidate.
func (m *Manager) Rollback(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	if s.lastGood == nil {
		return fmt.Errorf("lifecycle: slot %q has no previous program to roll back to", name)
	}
	from := s.live.gen
	detail := fmt.Sprintf("gen %d → gen %d", from, s.lastGood.gen)
	// Carry the outgoing incumbent's map state back: an explicit rollback is
	// a healthy-program decision (unlike degradation after a fault), so its
	// counters are trustworthy and fresher than last-known-good's.
	if n, err := s.lastGood.machine.TransferMapsFrom(s.live.machine); err != nil {
		detail += fmt.Sprintf(" (map transfer failed: %v)", err)
	} else if n > 0 {
		detail += fmt.Sprintf(" (%d maps transferred)", n)
	}
	s.live = s.lastGood
	s.live.stage = StageLive
	s.lastGood = nil
	s.cand = nil
	s.quarantine = nil
	m.eventLocked(s, Event{Kind: EventRolledBack, Stage: StageLive, Generation: s.live.gen,
		Detail: detail})
	m.journalSlotLocked(s, true)
	return nil
}

// Abort discards the slot's in-flight candidate without touching the
// incumbent — the operator-initiated twin of rejectLocked, used by the fleet
// controller when another node's divergence gate halts a rollout and every
// not-yet-promoted candidate must be withdrawn. Aborting also clears a
// quarantine episode: the watchdog has nothing left to rebuild.
func (m *Manager) Abort(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	if s.cand == nil && s.quarantine == nil {
		return fmt.Errorf("lifecycle: slot %q has no candidate to abort", name)
	}
	var detail string
	if s.cand != nil {
		detail = fmt.Sprintf("candidate gen %d withdrawn at stage %s", s.cand.gen, s.cand.stage)
		m.eventLocked(s, Event{Kind: EventAborted, Stage: s.cand.stage,
			Generation: s.cand.gen, Detail: detail})
	} else {
		detail = fmt.Sprintf("quarantine cleared: %s", s.quarantine.reason)
		m.eventLocked(s, Event{Kind: EventAborted, Stage: StageQuarantined, Detail: detail})
	}
	s.cand = nil
	s.quarantine = nil
	m.journalSlotLocked(s, true)
	return nil
}

// Remove drains a slot entirely: the live deployment, any candidate, the
// event ring, and the journal's memory of it (via a tombstone record, so the
// removal survives a crash). It exists for the fleet's `drain` RPC — when
// placement moves a slot off a worker the stale copy must stop existing, or a
// rejoin would resurrect it and serve old code. Removing an unknown slot is a
// no-op returning false: drains are retried by reconciliation and must be
// idempotent.
func (m *Manager) Remove(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slots[name] == nil {
		return false
	}
	delete(m.slots, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	// The tombstone fsyncs: removal is a stage transition for placement.
	m.jl.Append(func() any { return persistedRecord{Kind: "remove", Name: name} }, true)
	return true
}

// rejectLocked discards the candidate for a deterministic failure
// (divergence or cycle regression): rebuilding the same module would produce
// the same program, so the watchdog does not retry.
func (m *Manager) rejectLocked(s *slot, detail string) {
	m.eventLocked(s, Event{Kind: EventRejected, Stage: s.cand.stage,
		Generation: s.cand.gen, Detail: detail})
	s.cand = nil
}

// Tick gives quarantined slots a chance to retry without waiting for
// traffic, and drives the degraded journal's re-attachment probes.
func (m *Manager) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		s := m.slots[name]
		seqBefore := s.seq
		m.retryLocked(s)
		if s.seq != seqBefore {
			m.journalSlotLocked(s, true)
		}
	}
	m.jl.Tick()
}

// Slots lists the slot names in creation order.
func (m *Manager) Slots() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// Status reports a snapshot of every slot in creation order.
func (m *Manager) Status() []SlotStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SlotStatus, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.statusLocked(m.slots[name]))
	}
	return out
}

// StatusOf reports a snapshot of one slot.
func (m *Manager) StatusOf(name string) (SlotStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return SlotStatus{}, fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	return m.statusLocked(s), nil
}

func (m *Manager) statusLocked(s *slot) SlotStatus {
	st := SlotStatus{
		Slot:           s.name,
		Stage:          StageLive,
		LiveGeneration: 0,
		LiveNI:         -1,
		Served:         s.served,
		Mirrored:       s.mirrored,
		CanaryRouted:   s.canaryRouted,
		EventSeq:       s.seq,
		Events:         append([]Event(nil), s.events...),
	}
	if s.live != nil {
		st.LiveGeneration = s.live.gen
		st.LiveNI = s.live.prog.NI()
	}
	if s.cand != nil {
		st.Stage = s.cand.stage
		st.CandidateGeneration = s.cand.gen
		st.CandidateStage = s.cand.stage
		st.CandidateRuns = s.cand.runs
		st.Cleared = s.cand.cleared
	} else if s.quarantine != nil {
		st.Stage = StageQuarantined
	}
	if q := s.quarantine; q != nil {
		st.Retries = q.attempts
		st.Dead = q.dead
	}
	return st
}

// MapDump is one map's backing bytes, copied out of a live machine.
type MapDump struct {
	Name string
	Data []byte
}

// LiveMaps returns a copy of every map in the slot's live machine, in map
// declaration order — the observability hook behind merlind's `maps`
// command, and the easiest way to check that counters survived a promotion
// or a restart.
func (m *Manager) LiveMaps(name string) ([]MapDump, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return nil, fmt.Errorf("lifecycle: unknown slot %q", name)
	}
	if s.live == nil {
		return nil, fmt.Errorf("lifecycle: slot %q has nothing deployed", name)
	}
	mach := s.live.machine
	out := make([]MapDump, 0, mach.NumMaps())
	for i := 0; i < mach.NumMaps(); i++ {
		mp := mach.Map(i)
		out = append(out, MapDump{
			Name: mp.Spec().Name,
			Data: append([]byte(nil), mp.Backing()...),
		})
	}
	return out, nil
}

// Events returns a copy of the slot's event ring (oldest first).
func (m *Manager) Events(name string) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.events...)
}

func (m *Manager) eventLocked(s *slot, ev Event) {
	s.seq++
	ev.Seq = s.seq
	ev.Slot = s.name
	s.events = append(s.events, ev)
	if n := len(s.events); n > m.cfg.MaxEvents {
		// Drain the events about to fall off the ring into the metrics
		// registry first: the bounded ring may evict faster than anything
		// scrapes, and the registry must never lose an event. The watermark
		// keeps a later CollectMetrics from counting them again.
		m.drainEventsLocked(s, s.events[:n-m.cfg.MaxEvents])
		s.events = append(s.events[:0:0], s.events[n-m.cfg.MaxEvents:]...)
	}
}
