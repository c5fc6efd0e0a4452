package vm

import "merlin/internal/metrics"

// Metrics holds preresolved registry handles for per-run VM telemetry.
// Handles are looked up once at construction; recording a run is a handful
// of atomic adds with no locks and no heap allocation, cheap enough for the
// packet path (guarded by TestRunMetricsAllocationFree). One Metrics value
// is typically shared by every Machine a deployment manager creates, so the
// counters aggregate across live and mirrored programs.
type Metrics struct {
	runs      *metrics.Counter
	insns     *metrics.Counter
	cycles    *metrics.Counter
	helpers   *metrics.Counter
	runCycles *metrics.Histogram
	runInsns  *metrics.Histogram
	faults    map[FaultKind]*metrics.Counter
	faultMisc *metrics.Counter
	// lastFaultPC gauges act as exemplars: the instruction index of the most
	// recent fault of each kind, so an operator reading a scrape can jump from
	// "faults are climbing" straight to the offending instruction without
	// trawling logs. -1 means the fault had no attributable instruction.
	lastFaultPC   map[FaultKind]*metrics.Gauge
	lastFaultMisc *metrics.Gauge
}

// NewMetrics registers the VM metric family in reg and returns the handles.
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		runs: reg.Counter("merlin_vm_runs_total",
			"Machine.Run invocations, including faulted runs."),
		insns: reg.Counter("merlin_vm_instructions_total",
			"eBPF instructions executed across all runs."),
		cycles: reg.Counter("merlin_vm_cycles_total",
			"Modeled cycles consumed across all runs."),
		helpers: reg.Counter("merlin_vm_helper_calls_total",
			"Helper invocations across all runs."),
		runCycles: reg.Histogram("merlin_vm_run_cycles",
			"Per-run modeled cycle cost (log2 buckets)."),
		runInsns: reg.Histogram("merlin_vm_run_instructions",
			"Per-run executed instruction count (log2 buckets)."),
		faults: map[FaultKind]*metrics.Counter{},
		faultMisc: reg.Counter("merlin_vm_faults_total",
			"Runtime faults by kind.", "kind", "other"),
		lastFaultPC: map[FaultKind]*metrics.Gauge{},
		lastFaultMisc: reg.Gauge("merlin_vm_last_fault_pc",
			"Instruction index of the most recent fault of each kind (-1: unattributed).",
			"kind", "other"),
	}
	for _, k := range []FaultKind{
		FaultStepLimit, FaultBadPC, FaultBadMemory, FaultBadInstruction, FaultHelper,
	} {
		m.faults[k] = reg.Counter("merlin_vm_faults_total",
			"Runtime faults by kind.", "kind", string(k))
		m.lastFaultPC[k] = reg.Gauge("merlin_vm_last_fault_pc",
			"Instruction index of the most recent fault of each kind (-1: unattributed).",
			"kind", string(k))
	}
	return m
}

// record accounts one finished run. Safe on a nil receiver so Machine.Run
// does not branch on configuration.
func (m *Metrics) record(st Stats, err error) {
	if m == nil {
		return
	}
	m.runs.Add(1)
	m.insns.Add(st.Instructions)
	m.cycles.Add(st.Cycles)
	m.helpers.Add(st.HelperCalls)
	m.runCycles.Observe(st.Cycles)
	m.runInsns.Observe(st.Instructions)
	if err != nil {
		m.recordFault(err)
	}
}

// recordBatch accounts a finished batch: the registry ends up exactly as
// after one record call per packet in order, but the run counters and
// histograms are tallied locally and published once per batch.
func (m *Metrics) recordBatch(b *Batch) {
	if m == nil || len(b.Stats) == 0 {
		return
	}
	var insns, cycles, helpers uint64
	var runCycles, runInsns metrics.HistogramSnapshot
	for i := range b.Stats {
		st := &b.Stats[i]
		insns += st.Instructions
		cycles += st.Cycles
		helpers += st.HelperCalls
		runCycles.Observe(st.Cycles)
		runInsns.Observe(st.Instructions)
		if b.Errs[i] != nil {
			m.recordFault(b.Errs[i])
		}
	}
	m.runs.Add(uint64(len(b.Stats)))
	m.insns.Add(insns)
	m.cycles.Add(cycles)
	m.helpers.Add(helpers)
	m.runCycles.Add(&runCycles)
	m.runInsns.Add(&runInsns)
}

// recordFault counts a faulted run under its kind and points the kind's
// last-fault gauge at its instruction.
func (m *Metrics) recordFault(err error) {
	c, g, pc := m.faultMisc, m.lastFaultMisc, -1
	if re, ok := AsRuntimeError(err); ok {
		pc = re.PC
		if fc := m.faults[re.Kind]; fc != nil {
			c = fc
			g = m.lastFaultPC[re.Kind]
		}
	}
	c.Add(1)
	g.Set(int64(pc))
}
