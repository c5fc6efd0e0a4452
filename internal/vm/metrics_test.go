package vm

import (
	"reflect"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
	"merlin/internal/metrics"
)

func passProg() *ebpf.Program {
	return &ebpf.Program{Name: "pass", Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	}}
}

func badMemProg() *ebpf.Program {
	return &ebpf.Program{Name: "boom", Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 4096),
		ebpf.Exit(),
	}}
}

func TestRunMetricsCounters(t *testing.T) {
	reg := metrics.New()
	mm := NewMetrics(reg)
	m, err := New(passProg(), Config{Metrics: mm})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 64)
	ctx := BuildXDPContext(len(pkt))
	var wantInsns, wantCycles uint64
	const runs = 5
	for i := 0; i < runs; i++ {
		_, st, err := m.Run(ctx, pkt)
		if err != nil {
			t.Fatal(err)
		}
		wantInsns += st.Instructions
		wantCycles += st.Cycles
	}

	snap := reg.Snapshot()
	for key, want := range map[string]int64{
		"merlin_vm_runs_total":         runs,
		"merlin_vm_instructions_total": int64(wantInsns),
		"merlin_vm_cycles_total":       int64(wantCycles),
		"merlin_vm_run_cycles_count":   runs,
		"merlin_vm_run_cycles_sum":     int64(wantCycles),
	} {
		if got := snap[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got := snap[`merlin_vm_faults_total{kind="bad-memory"}`]; got != 0 {
		t.Errorf("clean runs recorded %d bad-memory faults", got)
	}
}

func TestRunMetricsFaultKinds(t *testing.T) {
	reg := metrics.New()
	mm := NewMetrics(reg)
	m, err := New(badMemProg(), Config{Metrics: mm})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 16)
	ctx := BuildXDPContext(len(pkt))
	if _, _, err := m.Run(ctx, pkt); err == nil {
		t.Fatal("bad-memory program did not fault")
	}
	snap := reg.Snapshot()
	if got := snap[`merlin_vm_faults_total{kind="bad-memory"}`]; got != 1 {
		t.Fatalf("bad-memory faults = %d, want 1 (snapshot %v)", got, snap)
	}
	if got := snap["merlin_vm_runs_total"]; got != 1 {
		t.Fatalf("faulted run not counted: runs = %d", got)
	}
}

// TestRunMetricsLastFaultPC: the exemplar gauge pins the most recent fault of
// each kind to its instruction index, and later faults of the same kind
// overwrite it.
func TestRunMetricsLastFaultPC(t *testing.T) {
	reg := metrics.New()
	mm := NewMetrics(reg)

	run := func(p *ebpf.Program) {
		t.Helper()
		m, err := New(p, Config{Metrics: mm})
		if err != nil {
			t.Fatal(err)
		}
		pkt := make([]byte, 16)
		if _, _, err := m.Run(BuildXDPContext(len(pkt)), pkt); err == nil {
			t.Fatal("program did not fault")
		}
	}

	run(badMemProg()) // faults at insn 0
	if got := reg.Snapshot()[`merlin_vm_last_fault_pc{kind="bad-memory"}`]; got != 0 {
		t.Errorf("last bad-memory fault pc = %d, want 0", got)
	}

	// Same kind, different pc: the gauge tracks the most recent fault.
	run(&ebpf.Program{Name: "boom2", Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 4096),
		ebpf.Exit(),
	}})
	if got := reg.Snapshot()[`merlin_vm_last_fault_pc{kind="bad-memory"}`]; got != 1 {
		t.Errorf("last bad-memory fault pc = %d, want 1", got)
	}
}

// TestRunMetricsAllocationFree is the packet-path guarantee: attaching
// metrics to a machine must not add a single per-run heap allocation over an
// uninstrumented machine.
func TestRunMetricsAllocationFree(t *testing.T) {
	pkt := make([]byte, 64)
	ctx := BuildXDPContext(len(pkt))

	bare, err := New(passProg(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := New(passProg(), Config{Metrics: NewMetrics(metrics.New())})
	if err != nil {
		t.Fatal(err)
	}

	runAllocs := func(m *Machine) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, _, err := m.Run(ctx, pkt); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := runAllocs(bare)
	withMetrics := runAllocs(instrumented)
	if withMetrics > base {
		t.Fatalf("metrics add %.1f allocations per run (bare %.1f, instrumented %.1f)",
			withMetrics-base, base, withMetrics)
	}
}

// mixedFaultProg calls a helper, then by packet length faults reading past
// a short packet (pc 6), faults again at a different pc (9), spins into the
// step limit (pc 11), or passes.
func mixedFaultProg() *ebpf.Program {
	return &ebpf.Program{Name: "mixed", Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
		ebpf.Call(helpers.GetPrandomU32),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R6, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R6, 8),
		ebpf.ALU64Reg(ebpf.ALUSub, ebpf.R3, ebpf.R2),
		ebpf.JumpImm(ebpf.JumpGT, ebpf.R3, 40, 2),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 50),
		ebpf.Exit(),
		ebpf.JumpImm(ebpf.JumpGT, ebpf.R3, 100, 2),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 200),
		ebpf.Exit(),
		ebpf.JumpImm(ebpf.JumpGT, ebpf.R3, 300, -1),
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	}}
}

// TestRunBatchMetricsMatchPerRun: RunBatch publishes its runs once per batch,
// and the registry it leaves — counters, both histograms bucket for bucket,
// per-kind fault counters and the last-fault-pc gauges — is exactly the one
// per-packet Run calls leave on a twin machine, on both engines.
func TestRunBatchMetricsMatchPerRun(t *testing.T) {
	// The batch's first bad-memory fault is at pc 9, its last at pc 6, so
	// the gauge tells the order faults were published in.
	lens := []int{60, 64, 96, 128, 256, 640, 14, 34}
	const n = 16
	ctxs, pkts := make([][]byte, n), make([][]byte, n)
	for i := range ctxs {
		pkts[i] = make([]byte, lens[i%len(lens)])
		ctxs[i] = BuildXDPContext(len(pkts[i]))
	}
	for _, ref := range []bool{false, true} {
		load := func() (*Machine, *metrics.Registry) {
			reg := metrics.New()
			cfg := Config{StepLimit: 64, Metrics: NewMetrics(reg)}
			m, err := New(mixedFaultProg(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref {
				r, err := NewRef(mixedFaultProg(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m = r.Machine
			}
			return m, reg
		}
		batched, breg := load()
		single, sreg := load()
		var out Batch
		faults := batched.RunBatch(ctxs, pkts, &out)
		for i := range ctxs {
			rv, _, err := single.Run(ctxs[i], pkts[i])
			if rv != out.RV[i] || (err == nil) != (out.Errs[i] == nil) {
				t.Fatalf("engine %s packet %d: batch rv=%d err=%v, Run rv=%d err=%v",
					batched.Engine(), i, out.RV[i], out.Errs[i], rv, err)
			}
		}
		got, want := breg.Snapshot(), sreg.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %s: batch registry\n  %v\nper-run registry\n  %v", batched.Engine(), got, want)
		}
		if gt, wt := breg.Text(), sreg.Text(); gt != wt {
			t.Fatalf("engine %s: batch exposition\n%s\nper-run exposition\n%s", batched.Engine(), gt, wt)
		}
		for key, v := range map[string]int64{
			"merlin_vm_runs_total":                       n,
			`merlin_vm_faults_total{kind="bad-memory"}`:  10,
			`merlin_vm_faults_total{kind="step-limit"}`:  2,
			`merlin_vm_last_fault_pc{kind="bad-memory"}`: 6,
			`merlin_vm_last_fault_pc{kind="step-limit"}`: 11,
			"merlin_vm_helper_calls_total":               n,
			"merlin_vm_run_instructions_count":           n,
		} {
			if got[key] != v {
				t.Errorf("engine %s: %s = %d, want %d", batched.Engine(), key, got[key], v)
			}
		}
		if faults != 12 {
			t.Errorf("engine %s: RunBatch reports %d faults, want 12", batched.Engine(), faults)
		}
	}

	// Publishing a batch allocates nothing: a clean batch through the fast
	// engine allocates nothing at all, and a faulting one allocates only
	// what the same batch allocates without Metrics.
	allocs := func(cfg Config, ctxs, pkts [][]byte) float64 {
		m, err := New(mixedFaultProg(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out Batch
		m.RunBatch(ctxs, pkts, &out)
		return testing.AllocsPerRun(50, func() { m.RunBatch(ctxs, pkts, &out) })
	}
	withMetrics := Config{StepLimit: 64, Metrics: NewMetrics(metrics.New())}
	if avg := allocs(withMetrics, ctxs[3:5], pkts[3:5]); avg != 0 {
		t.Fatalf("clean RunBatch with Metrics allocates %.1f per batch, want 0", avg)
	}
	if got, bare := allocs(withMetrics, ctxs, pkts), allocs(Config{StepLimit: 64}, ctxs, pkts); got > bare {
		t.Fatalf("faulting RunBatch allocates %.1f per batch with Metrics, %.1f without", got, bare)
	}
}
