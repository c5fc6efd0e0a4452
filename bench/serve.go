package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/netbench"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

// packetSet is one program's private copy of a packet trace. Programs
// rewrite packets and contexts in place, so every sweep starts by restoring
// both; the copy is per program so one program's writes never become
// another's input.
type packetSet struct {
	pristine [][]byte
	pkts     [][]byte
	ctxs     [][]byte
}

func newPacketSet(packets [][]byte) *packetSet {
	ps := &packetSet{pristine: packets}
	for _, p := range packets {
		ps.pkts = append(ps.pkts, clone(p))
		ps.ctxs = append(ps.ctxs, vm.BuildXDPContext(len(p)))
	}
	return ps
}

func (ps *packetSet) restore() {
	for i, p := range ps.pristine {
		copy(ps.pkts[i], p)
		ps.ctxs[i] = vm.BuildXDPContextInto(ps.ctxs[i], len(p))
	}
}

func inputPackets(ins []guard.Input) [][]byte {
	out := make([][]byte, len(ins))
	for i, in := range ins {
		out[i] = in.Pkt
	}
	return out
}

// tracePackets is the length of the packet trace the in-process workloads
// sweep; batchSize the packets per ServeBatch call.
const (
	tracePackets = 256
	batchSize    = netbench.DefaultBatchSize
)

// localRunner is serve-batch (ServeBatch, batch 64) and serve-mirror (a
// shadow candidate pinned on every slot, per-packet Serve): an in-process
// lifecycle.Manager with all 19 XDP programs live.
type localRunner struct {
	mirror bool
	seed   int64
	mgr    *lifecycle.Manager
	progs  []built
	sets   []*packetSet
	out    vm.Batch
	next   int
	sweeps []int     // sweeps served per program
	deploy []float64 // ms per Deploy (build + load)
}

// managerConfig is the configuration merlind gives its manager: one metrics
// registry shared with the machines. pinShadow keeps a candidate mirroring
// for the whole run.
func managerConfig(seed int64, pinShadow bool) lifecycle.Config {
	reg := metrics.New()
	cfg := lifecycle.Config{Metrics: reg, VM: vm.Config{Seed: uint64(seed), Metrics: vm.NewMetrics(reg)}}
	if pinShadow {
		cfg.ShadowRuns = 1 << 30
	}
	return cfg
}

// deployAll deploys every spec into mgr through the deployment build (twice
// when a candidate is wanted) and returns what was built.
func deployAll(mgr *lifecycle.Manager, specs []*corpus.ProgramSpec, opts func(*corpus.ProgramSpec) core.Options, candidate bool) ([]built, []float64, error) {
	var progs []built
	var deployMS []float64
	for _, spec := range specs {
		var res *core.Result
		src := func() (*core.Result, error) {
			r, err := core.BuildForDeploy(spec.Mod, spec.Func, opts(spec))
			res = r
			return r, err
		}
		n := 1
		if candidate {
			n = 2
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := mgr.Deploy(spec.Name, src); err != nil {
				return nil, nil, err
			}
			deployMS = append(deployMS, ms(time.Since(t0)))
		}
		progs = append(progs, built{spec: spec, opt: res.Prog, base: res.Baseline})
	}
	return progs, deployMS, nil
}

func (lr *localRunner) setup(_ *env, seed int64) error {
	lr.seed = seed
	specs := corpus.XDP()
	so := superopt.NewMemCache()
	lr.mgr = lifecycle.NewManager(managerConfig(seed, lr.mirror))
	var err error
	lr.progs, lr.deploy, err = deployAll(lr.mgr, specs,
		func(s *corpus.ProgramSpec) core.Options { return deployOpts(s, so) }, lr.mirror)
	if err != nil {
		return err
	}
	trace := netbench.NewTrace(tracePackets, seed)
	for range lr.progs {
		lr.sets = append(lr.sets, newPacketSet(trace.Packets))
	}
	lr.sweeps = make([]int, len(lr.progs))
	return nil
}

func (lr *localRunner) close() {}

// serve sends program p's packet set through the manager once, the way the
// workload does: ServeBatch in batches of 64, or Serve packet by packet. rvs,
// when set, receives the return values.
func (lr *localRunner) serve(p int, rvs []int64) error {
	ps, name := lr.sets[p], lr.progs[p].spec.Name
	if lr.mirror {
		for i := range ps.pkts {
			rv, _, err := lr.mgr.Serve(name, ps.ctxs[i], ps.pkts[i])
			if err != nil {
				return fmt.Errorf("%s: packet %d: %w", name, i, err)
			}
			if rvs != nil {
				rvs[i] = rv
			}
		}
		return nil
	}
	for base := 0; base < len(ps.pkts); base += batchSize {
		end := min(base+batchSize, len(ps.pkts))
		faults, err := lr.mgr.ServeBatch(name, ps.ctxs[base:end], ps.pkts[base:end], &lr.out)
		if err != nil || faults != 0 {
			return fmt.Errorf("%s: batch at %d: %d faults, %v", name, base, faults, err)
		}
		if rvs != nil {
			copy(rvs[base:end], lr.out.RV)
		}
	}
	return nil
}

// op is one sweep of the next program: restore its packets, serve them.
func (lr *localRunner) op(w *window, r *result) error {
	p := lr.next % len(lr.progs)
	lr.next++
	r.attempted++
	err := timeOp(w, func() error {
		lr.sets[p].restore()
		return lr.serve(p, nil)
	})
	if err != nil {
		r.fail(1, "%v", err)
		return nil
	}
	lr.sweeps[p]++
	w.units += tracePackets
	return nil
}

// checkedSweeps is how many leading sweeps of every program are compared,
// packet by packet and then map by map, with the baseline program on the
// reference interpreter.
const checkedSweeps = 2

func (lr *localRunner) warmup(r *result) error {
	rvs := make([]int64, tracePackets)
	for p, b := range lr.progs {
		ref, err := vm.NewRef(b.base, vm.Config{Seed: uint64(lr.seed)})
		if err != nil {
			return err
		}
		refSet := newPacketSet(lr.sets[p].pristine)
		r.attempted++
		bad := func() error {
			for s := 0; s < checkedSweeps; s++ {
				lr.sets[p].restore()
				if err := lr.serve(p, rvs); err != nil {
					return err
				}
				lr.sweeps[p]++
				refSet.restore()
				for i := range refSet.pkts {
					rv, _, err := ref.Run(refSet.ctxs[i], refSet.pkts[i])
					if err != nil {
						return fmt.Errorf("%s: reference faulted on packet %d: %w", b.spec.Name, i, err)
					}
					if rv != rvs[i] {
						return fmt.Errorf("%s: sweep %d packet %d returned %d, reference %d", b.spec.Name, s, i, rvs[i], rv)
					}
				}
			}
			dumps, err := lr.mgr.LiveMaps(b.spec.Name)
			if err != nil {
				return err
			}
			for i, md := range dumps {
				if !bytes.Equal(md.Data, ref.Map(i).Backing()) {
					return fmt.Errorf("%s: map %s differs from reference after %d sweeps", b.spec.Name, md.Name, checkedSweeps)
				}
			}
			return nil
		}()
		if bad != nil {
			r.fail(1, "%v", bad)
		}
	}
	r.note("reference check: first %d sweeps of each program, return values and map state, against vm.NewRef(baseline)", checkedSweeps)
	return nil
}

// audit checks the manager's own counters after the timed phase: every
// packet served, none diverged, and on the mirror workload every one
// mirrored through a candidate still pinned in shadow.
func (lr *localRunner) audit(r *result) {
	for p, b := range lr.progs {
		st, err := lr.mgr.StatusOf(b.spec.Name)
		r.attempted++
		want := uint64(lr.sweeps[p] * tracePackets)
		switch {
		case err != nil:
			r.fail(1, "%v", err)
		case st.Served != want:
			r.fail(1, "%s: served %d, sent %d", b.spec.Name, st.Served, want)
		case lr.mirror && (st.CandidateStage != lifecycle.StageShadow || st.Mirrored != want || uint64(st.CandidateRuns) != want):
			r.fail(1, "%s: candidate %s mirrored %d clean %d of %d", b.spec.Name, st.CandidateStage, st.Mirrored, st.CandidateRuns, want)
		case !lr.mirror && st.CandidateGeneration != 0:
			r.fail(1, "%s: unexpected candidate", b.spec.Name)
		}
	}
}

func (lr *localRunner) measure(d time.Duration, r *result) error {
	if err := lr.warmup(r); err != nil {
		return err
	}
	ws, err := runWindows(d, timedWindows, func(_ int, w *window) error { return lr.op(w, r) })
	if err != nil {
		return err
	}
	lr.audit(r)
	r.setSummary(summarize(ws))
	r.setQuality(assess(lr.progs, lr.seed))
	return nil
}

// microDur is how long each single-layer timing loop runs, microCalls the
// most timed calls (and spans) it makes.
const (
	microDur   = 400 * time.Millisecond
	microCalls = 2000
)

// sweepNS calls fn — one pass over pkts packets — for microDur or microCalls
// times, with prep run untimed before each call, and returns the median
// nanoseconds per packet. Each call is one span.
func sweepNS(tr *tracer, name string, pkts int, prep func(), fn func() error) (float64, error) {
	var samples []float64
	tr.request()
	for start := time.Now(); len(samples) < 5 || (time.Since(start) < microDur && len(samples) < microCalls); {
		prep()
		var err error
		d := tr.timed(name, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, float64(d.Nanoseconds())/float64(pkts))
	}
	return median(samples), nil
}

// machineSet is one loaded machine per program with its packets.
type machineSet struct {
	machines []*vm.Machine
	sets     []*packetSet
	pkts     int
	out      vm.Batch
}

// newMachineSet loads every program with load and returns the machines with
// the microseconds each load took.
func newMachineSet(progs []*ebpf.Program, packets [][]byte, load func(*ebpf.Program) (*vm.Machine, error)) (*machineSet, []float64, error) {
	ms := &machineSet{}
	var loadUS []float64
	for _, p := range progs {
		t0 := time.Now()
		m, err := load(p)
		loadUS = append(loadUS, us(time.Since(t0)))
		if err != nil {
			return nil, nil, err
		}
		ms.machines = append(ms.machines, m)
		ms.sets = append(ms.sets, newPacketSet(packets))
		ms.pkts += len(packets)
	}
	return ms, loadUS, nil
}

func (s *machineSet) restore() {
	for _, ps := range s.sets {
		ps.restore()
	}
}

// run executes every packet on every machine one Run at a time and returns
// the summed stats.
func (s *machineSet) run() (vm.Stats, error) {
	var total vm.Stats
	for i, m := range s.machines {
		ps := s.sets[i]
		for j := range ps.pkts {
			_, st, err := m.Run(ps.ctxs[j], ps.pkts[j])
			if err != nil {
				return total, err
			}
			total.Add(st)
		}
	}
	return total, nil
}

// runBatch executes every packet on every machine in batches of batchSize.
func (s *machineSet) runBatch() error {
	for i, m := range s.machines {
		ps := s.sets[i]
		for base := 0; base < len(ps.pkts); base += batchSize {
			end := min(base+batchSize, len(ps.pkts))
			if faults := m.RunBatch(ps.ctxs[base:end], ps.pkts[base:end], &s.out); faults != 0 {
				return fmt.Errorf("%d packets faulted", faults)
			}
		}
	}
	return nil
}

func programsOf(set []built, baseline bool) []*ebpf.Program {
	out := make([]*ebpf.Program, len(set))
	for i, b := range set {
		out[i] = b.opt
		if baseline {
			out[i] = b.base
		}
	}
	return out
}

// vmLayers times the machine alone on the workload's programs and packets:
// load, per-packet Run, RunBatch on the optimized and the baseline bytecode,
// and the reference interpreter.
func vmLayers(tr *tracer, r *result, set []built, packets [][]byte, seed int64) error {
	cfg := vm.Config{Seed: uint64(seed)}
	fast := func(p *ebpf.Program) (*vm.Machine, error) { return vm.New(p, cfg) }
	opt, loadUS, err := newMachineSet(programsOf(set, false), packets, fast)
	if err != nil {
		return err
	}
	r.set("vm.new_us", median(loadUS))
	onFast := 0
	for _, m := range opt.machines {
		if m.Engine() == "fast" {
			onFast++
		}
	}
	r.set("vm.fast_engine_share", float64(onFast)/float64(len(opt.machines)))
	opt.restore()
	st, err := opt.run()
	if err != nil {
		return err
	}
	r.set("vm.insns_per_pkt", float64(st.Instructions)/float64(opt.pkts))
	r.set("vm.cycles_per_pkt", float64(st.Cycles)/float64(opt.pkts))

	base, _, err := newMachineSet(programsOf(set, true), packets, fast)
	if err != nil {
		return err
	}
	ref, _, err := newMachineSet(programsOf(set, false), packets, func(p *ebpf.Program) (*vm.Machine, error) {
		rm, err := vm.NewRef(p, cfg)
		if err != nil {
			return nil, err
		}
		return rm.Machine, nil
	})
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		set  *machineSet
		fn   func() error
	}{
		{"vm.run_ns_per_pkt", opt, func() error { _, err := opt.run(); return err }},
		{"vm.runbatch_ns_per_pkt", opt, opt.runBatch},
		{"vm.runbatch_baseline_ns_per_pkt", base, base.runBatch},
		{"vm.ref_ns_per_pkt", ref, func() error { _, err := ref.run(); return err }},
	} {
		v, err := sweepNS(tr, m.name, m.set.pkts, m.set.restore, m.fn)
		if err != nil {
			return err
		}
		r.set(m.name, v)
	}
	return nil
}

// metricsLayers times the registry's two hot operations.
func metricsLayers(tr *tracer, r *result) error {
	reg := metrics.New()
	c := reg.Counter("bench_counter_total", "benchmark counter")
	for i := 0; i < 64; i++ {
		reg.Counter(fmt.Sprintf("bench_family_%d_total", i), "filler family").Inc()
	}
	const incs = 1 << 16
	inc, err := sweepNS(tr, "metrics.counter_inc", incs, func() {}, func() error {
		for i := 0; i < incs; i++ {
			c.Inc()
		}
		return nil
	})
	if err != nil {
		return err
	}
	write, err := sweepNS(tr, "metrics.write_text", 1, func() {}, func() error { return reg.WriteText(io.Discard) })
	r.set("metrics.counter_inc_ns", inc)
	r.set("metrics.write_text_us", write/1e3)
	return err
}

// tracedWindows runs the workload's operation for d, tracing the odd windows,
// and reports the end-to-end cost per packet (untraced windows) and the
// tracing overhead.
func tracedWindows(d time.Duration, tr *tracer, r *result, spanName string, op func(w *window) error) (e2eNS float64, err error) {
	ws, err := runWindows(d, timedWindows, func(i int, w *window) error {
		if i%2 == 1 {
			tr.request()
			defer tr.begin(spanName)()
		}
		return op(w)
	})
	if err != nil {
		return 0, err
	}
	e2eNS = 1e9 / setTraceOverhead(r, ws)
	r.set("serve.e2e_ns_per_pkt", e2eNS)
	return e2eNS, nil
}

// setTraceOverhead reports trace.overhead_pct from a run whose odd windows
// were traced and whose even windows were not, and returns the untraced
// windows' throughput.
func setTraceOverhead(r *result, ws []window) float64 {
	var even, odd []window
	for i, w := range ws {
		if i%2 == 0 {
			even = append(even, w)
		} else {
			odd = append(odd, w)
		}
	}
	plain, traced := summarize(even).perSec, summarize(odd).perSec
	r.set("trace.overhead_pct", 100*(plain-traced)/plain)
	return plain
}

// setUnattributed closes the per-packet sum: the layer rows named in parts
// plus serve.unattributed_ns_per_pkt equal serve.e2e_ns_per_pkt.
func setUnattributed(r *result, e2eNS float64, parts map[string]float64) {
	sum := 0.0
	desc := ""
	for _, name := range sortedKeys(parts) {
		sum += parts[name]
		desc += fmt.Sprintf(" %s=%.1f", name, parts[name])
	}
	r.set("serve.unattributed_ns_per_pkt", e2eNS-sum)
	r.note("per packet, ns: e2e %.1f =%s + unattributed %.1f", e2eNS, desc, e2eNS-sum)
}

func (lr *localRunner) layers(d time.Duration, tr *tracer, r *result) error {
	if err := lr.warmup(r); err != nil {
		return err
	}
	name := "lifecycle.ServeBatch sweep"
	if lr.mirror {
		name = "lifecycle.Serve sweep"
	}
	e2e, err := tracedWindows(d/2, tr, r, name, func(w *window) error { return lr.op(w, r) })
	if err != nil {
		return err
	}
	lr.audit(r)
	r.set("lifecycle.deploy_ms", median(lr.deploy))

	// The manager call alone: the same sweeps with packet restoring untimed.
	all := tracePackets * len(lr.progs)
	restoreAll := func() {
		for _, ps := range lr.sets {
			ps.restore()
		}
	}
	serveAll := func() error {
		for p := range lr.progs {
			if err := lr.serve(p, nil); err != nil {
				return err
			}
			lr.sweeps[p]++
		}
		return nil
	}
	var m0, m1 runtime.MemStats
	restoreAll()
	runtime.ReadMemStats(&m0)
	if err := serveAll(); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.set("lifecycle.allocs_per_pkt", float64(m1.Mallocs-m0.Mallocs)/float64(all))

	packets := lr.sets[0].pristine
	if err := vmLayers(tr, r, lr.progs, packets, lr.seed); err != nil {
		return err
	}
	if err := metricsLayers(tr, r); err != nil {
		return err
	}
	call, err := sweepNS(tr, "lifecycle sweep", all, restoreAll, serveAll)
	if err != nil {
		return err
	}
	if lr.mirror {
		// Two machine runs per packet sit under the mirrored Serve; the same
		// programs without a candidate give the plain Serve figure.
		plain := *lr
		plain.mgr = lifecycle.NewManager(managerConfig(lr.seed, false))
		for _, b := range lr.progs {
			res := &core.Result{Prog: b.opt, Baseline: b.base}
			if err := plain.mgr.Deploy(b.spec.Name, func() (*core.Result, error) { return res, nil }); err != nil {
				return err
			}
		}
		serve, err := sweepNS(tr, "lifecycle.Serve sweep (no candidate)", all, restoreAll, func() error {
			for p := range plain.progs {
				if err := plain.serve(p, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		run := r.metrics["vm.run_ns_per_pkt"]
		r.set("lifecycle.serve_ns_per_pkt", serve)
		r.set("lifecycle.mirror_ns_per_pkt", call)
		r.set("lifecycle.overhead_ns_per_pkt", call-2*run)
		setUnattributed(r, e2e, map[string]float64{"2 x vm.run_ns_per_pkt": 2 * run, "lifecycle.overhead_ns_per_pkt": call - 2*run})
		return nil
	}
	runBatch := r.metrics["vm.runbatch_ns_per_pkt"]
	r.set("lifecycle.servebatch_ns_per_pkt", call)
	r.set("lifecycle.overhead_ns_per_pkt", call-runBatch)
	setUnattributed(r, e2e, map[string]float64{"vm.runbatch_ns_per_pkt": runBatch, "lifecycle.overhead_ns_per_pkt": call - runBatch})
	return nil
}
