// Package soak is the storage-chaos soak harness: it drives a lifecycle
// manager through deploy / promote / rollback / traffic churn while a
// seeded chaos.Injector fires ENOSPC, EIO and torn writes at every journal
// I/O site, then audits the wreckage. The three invariants it exists to
// check, matching the durability contract documented in DESIGN.md §12:
//
//  1. the incumbent never stops serving — not one Serve call may fail, no
//     matter what storage does;
//  2. nothing panics, under -race, with concurrent traffic workers;
//  3. whatever bytes survive on disk, Recover yields a consistent (possibly
//     older, never corrupt) state — including on every truncation prefix of
//     the surviving journal segments.
//
// The harness is a plain library so tests and ci.sh drive it with their own
// budgets; it performs the churn and reports, the caller asserts.
package soak

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/helpers"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// Config parameterizes one soak run.
type Config struct {
	// Dir is the state directory (required).
	Dir string
	// Seed drives both the fault plan and the churn schedule — the same seed
	// replays the same soak.
	Seed int64
	// FaultRate is the per-operation fault probability (0.01 = 1%).
	FaultRate float64
	// Ops is the churn-loop length (default 400).
	Ops int
	// Workers is the count of concurrent traffic goroutines hammering Serve
	// while the churn loop mutates state (default 2).
	Workers int
	// Policy / SegmentBytes configure the journal under test (defaults: the
	// sync-every-record policy, 2KiB segments so rotation actually happens).
	Policy       journal.Policy
	SegmentBytes int64
	// Slots are the program slots to churn (default "alpha", "beta").
	Slots []string
}

// Report is what one soak run observed.
type Report struct {
	// Serves counts successful Serve calls (workers + churn loop);
	// ServeFailures MUST be 0 — any failure means the incumbent stopped
	// serving, the one thing the lifecycle tier promises never happens.
	Serves        uint64
	ServeFailures uint64
	// FirstServeErr is the first serving failure, for the postmortem.
	FirstServeErr string
	// Churn-op counts.
	Deploys, Promotes, Rollbacks, Flushes, Compacts int
	// StartupDegraded reports that journal.Open itself failed and the run
	// began in-memory; EndDegraded is the health state at the end.
	StartupDegraded bool
	EndDegraded     bool
	Health          journal.Health
	// Journal is the journal's own accounting (zero when the journal never
	// attached); Injector is what the fault plan actually did.
	Journal  journal.Stats
	Injector chaos.Stats
}

func (r *Report) String() string {
	return fmt.Sprintf("serves=%d serve_failures=%d deploys=%d promotes=%d rollbacks=%d "+
		"appends=%d fsyncs=%d forced_fsyncs=%d rotations=%d segments=%d wedge_repairs=%d "+
		"injected=%d torn=%d degraded=%v reattaches=%d",
		r.Serves, r.ServeFailures, r.Deploys, r.Promotes, r.Rollbacks,
		r.Journal.Appends, r.Journal.Fsyncs, r.Journal.ForcedFsyncs, r.Journal.Rotations,
		r.Journal.Segments, r.Journal.WedgeRepairs,
		r.Injector.Injected, r.Injector.TornWrites, r.EndDegraded, r.Health.Reattaches)
}

// splitmix64 is the churn PRNG — self-contained so the soak never depends
// on math/rand ordering across Go versions.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// countProg counts every packet into slot 0 of an array map and returns
// XDP_PASS(2): the soak's workload program, chosen so recovery consistency
// is observable as map state and the incumbent verdict is a constant the
// workers can assert.
func countProg(name string) *ebpf.Program {
	return &ebpf.Program{
		Name: name,
		Hook: ebpf.HookXDP,
		Insns: []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R6, 0),
			ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R6),
			ebpf.LoadMapPtr(ebpf.R1, 0),
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
			ebpf.Call(helpers.MapLookupElem),
			ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 2),
			ebpf.Mov64Imm(ebpf.R1, 1),
			ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R0, 0, ebpf.R1),
			ebpf.Mov64Imm(ebpf.R0, 2),
			ebpf.Exit(),
		},
		Maps: []ebpf.MapSpec{{Name: "cnt", Kind: 0, KeySize: 4, ValueSize: 8, MaxEntries: 1}},
	}
}

func source(gen int) lifecycle.Source {
	return func() (*core.Result, error) {
		return &core.Result{Prog: countProg(fmt.Sprintf("soak-g%d", gen))}, nil
	}
}

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 400
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 2 << 10
	}
	if len(c.Slots) == 0 {
		c.Slots = []string{"alpha", "beta"}
	}
	return c
}

// Run executes one soak and returns its report. The error return covers
// harness-level problems (bad config, initial deploy impossible); invariant
// violations are in the Report for the caller to assert on.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("soak: Config.Dir required")
	}
	rep := &Report{}
	inj := chaos.Wrap(chaos.OS(), chaos.NewRate(cfg.Seed, cfg.FaultRate, chaos.EIO, chaos.ENOSPC, chaos.Torn))
	inj.SlowDelay = 0

	// Open the journal through the injector; the open path itself is a fault
	// surface, so a few retries, then start degraded like merlind would.
	var jl *journal.Log
	var jerr error
	for attempt := 0; attempt < 5 && jl == nil; attempt++ {
		jl, jerr = journal.OpenWith(cfg.Dir, journal.Options{
			FS: inj, SegmentBytes: cfg.SegmentBytes, Policy: cfg.Policy,
		})
	}
	m := lifecycle.NewManager(lifecycle.Config{
		ShadowRuns:          3,
		CanaryRuns:          3,
		Journal:             jl, // nil when every open attempt faulted
		Metrics:             metrics.New(),
		CompactEvery:        32,
		JournalDegradeAfter: 2,
		JournalRetryBase:    time.Millisecond,
		JournalRetryMax:     10 * time.Millisecond,
	})
	if jl == nil {
		rep.StartupDegraded = true
		m.MarkJournalUnavailable(jerr.Error())
	}

	for _, name := range cfg.Slots {
		if err := m.DeployWith(name, source(0), lifecycle.DeployOptions{SourceDesc: name}); err != nil {
			return nil, fmt.Errorf("soak: initial deploy %s: %w", name, err)
		}
	}

	// Traffic workers: concurrent Serve pressure for the whole churn window.
	serveOnce := func(slot string, b byte) {
		pkt := make([]byte, 64)
		pkt[0] = b
		rv, _, err := m.Serve(slot, vm.BuildXDPContext(len(pkt)), pkt)
		if err != nil || rv != 2 {
			if atomic.AddUint64(&rep.ServeFailures, 1) == 1 {
				rep.FirstServeErr = fmt.Sprintf("slot %s: rv=%d err=%v", slot, rv, err)
			}
			return
		}
		atomic.AddUint64(&rep.Serves, 1)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := splitmix64(cfg.Seed ^ int64(w+1)*0x5851f42d)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := rng.next()
				serveOnce(cfg.Slots[r%uint64(len(cfg.Slots))], byte(r>>8))
			}
		}(w)
	}

	// The churn loop: mostly traffic, with deploys, promotions, rollbacks,
	// flushes, ticks and compactions sprinkled in on the seeded schedule.
	rng := splitmix64(cfg.Seed)
	gen := 1
	for i := 0; i < cfg.Ops; i++ {
		r := rng.next()
		slot := cfg.Slots[(r>>32)%uint64(len(cfg.Slots))]
		switch v := r % 100; {
		case v < 8:
			gen++
			_ = m.DeployWith(slot, source(gen), lifecycle.DeployOptions{SourceDesc: slot})
			rep.Deploys++
		case v < 14:
			if m.Promote(slot, v < 11) == nil {
				rep.Promotes++
			}
		case v < 16:
			if m.Rollback(slot) == nil {
				rep.Rollbacks++
			}
		case v < 24:
			_ = m.Flush() // steady-state map drift: the group-commit workload
			rep.Flushes++
		case v < 26:
			m.Tick()
		case v < 28:
			m.Compact()
			rep.Compacts++
		default:
			serveOnce(slot, byte(r>>16))
		}
	}
	close(stop)
	wg.Wait()

	_ = m.Flush()
	rep.Health = m.JournalHealth()
	rep.EndDegraded = rep.Health.Degraded
	rep.Injector = inj.Stats()
	if jl != nil {
		rep.Journal = jl.Stats()
		_ = jl.Close()
	}
	return rep, nil
}

// VerifyRecovery opens dir fault-free, recovers, and proves the result
// consistent: Recover must not error, and every recovered slot must serve
// the incumbent verdict. An empty recovery (all state lost) is consistent —
// older state always is; corrupt state never.
func VerifyRecovery(dir string) (lifecycle.RecoverStats, error) {
	jl, err := journal.Open(dir)
	if err != nil {
		return lifecycle.RecoverStats{}, fmt.Errorf("soak: verify open: %w", err)
	}
	defer jl.Close()
	m := lifecycle.NewManager(lifecycle.Config{Journal: jl})
	rs, err := m.Recover()
	if err != nil {
		return rs, fmt.Errorf("soak: recover: %w", err)
	}
	for _, name := range m.Slots() {
		pkt := make([]byte, 64)
		rv, _, err := m.Serve(name, vm.BuildXDPContext(len(pkt)), pkt)
		if err != nil || rv != 2 {
			return rs, fmt.Errorf("soak: recovered slot %s does not serve: rv=%d err=%v", name, rv, err)
		}
	}
	return rs, nil
}
