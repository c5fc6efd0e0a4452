package vm

import (
	"errors"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
	"merlin/internal/metrics"
)

// bothEngines loads prog into the fast machine and a RefMachine with the
// same config and hands them to fn.
func bothEngines(t *testing.T, prog *ebpf.Program, cfg Config, fn func(name string, m *Machine)) {
	t.Helper()
	fast, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Engine() != "fast" {
		t.Fatalf("New: engine = %q, want fast", fast.Engine())
	}
	ref, err := NewRef(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Engine() != "ref" {
		t.Fatalf("NewRef: engine = %q, want ref", ref.Engine())
	}
	fn("fast", fast)
	fn("ref", ref.Machine)
}

// TestFaultParityBothEngines is the fault-path consistency table: every
// fault class the VM can produce must carry an identical kind, pc, detail
// string and partial Stats on both engines.
func TestFaultParityBothEngines(t *testing.T) {
	legacyLD := ebpf.Instruction{Opcode: byte(ebpf.ClassLD) | byte(ebpf.ModeABS)}
	badALU := ebpf.Instruction{Opcode: 0xe0 | byte(ebpf.ClassALU64)}

	cases := []struct {
		name  string
		insns []ebpf.Instruction
		cfg   Config
		ctx   []byte
		pkt   []byte
		kind  FaultKind
		pc    int
	}{
		{
			name:  "step-limit",
			insns: []ebpf.Instruction{ebpf.Jump(-1), ebpf.Exit()},
			cfg:   Config{StepLimit: 64},
			kind:  FaultStepLimit,
			pc:    0,
		},
		{
			name: "fallthrough-past-end",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R0, 1),
			},
			kind: FaultBadPC,
			pc:   -1,
		},
		{
			name: "bad-jump-target-into-lddw",
			insns: []ebpf.Instruction{
				ebpf.Jump(1), // lands in the middle of the lddw pair
				ebpf.LoadImm64(ebpf.R0, 0x1234),
				ebpf.Exit(),
			},
			kind: FaultBadPC,
			pc:   0,
		},
		{
			name: "bad-branch-target-taken",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 1),
				ebpf.JumpImm(ebpf.JumpEq, ebpf.R1, 1, 100),
				ebpf.Exit(),
			},
			kind: FaultBadPC,
			pc:   1,
		},
		{
			name:  "legacy-ld",
			insns: []ebpf.Instruction{legacyLD, ebpf.Exit()},
			kind:  FaultBadInstruction,
			pc:    0,
		},
		{
			name:  "unknown-alu-op",
			insns: []ebpf.Instruction{badALU, ebpf.Exit()},
			kind:  FaultBadInstruction,
			pc:    0,
		},
		{
			name: "unknown-atomic-op",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 1),
				func() ebpf.Instruction {
					ins := ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R10, -8, ebpf.R1)
					ins.Imm = 0x99
					return ins
				}(),
				ebpf.Exit(),
			},
			kind: FaultBadInstruction,
			pc:   1,
		},
		{
			name: "ldx-bad-memory",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 0x42),
				ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 0),
				ebpf.Exit(),
			},
			kind: FaultBadMemory,
			pc:   1,
		},
		{
			name: "stx-bad-memory",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 0x42),
				ebpf.StoreMem(ebpf.SizeW, ebpf.R1, 0, ebpf.R1),
				ebpf.Exit(),
			},
			kind: FaultBadMemory,
			pc:   1,
		},
		{
			name: "st-imm-bad-memory",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 0x42),
				ebpf.StoreImm(ebpf.SizeW, ebpf.R1, 0, 7),
				ebpf.Exit(),
			},
			kind: FaultBadMemory,
			pc:   1,
		},
		{
			name: "atomic-bad-memory",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 0x42),
				ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R1, 0, ebpf.R1),
				ebpf.Exit(),
			},
			kind: FaultBadMemory,
			pc:   1,
		},
		{
			name:  "unknown-helper",
			insns: []ebpf.Instruction{ebpf.Call(9999), ebpf.Exit()},
			kind:  FaultHelper,
			pc:    0,
		},
		{
			name: "helper-bad-map-handle",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 3), // not a map handle
				ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
				ebpf.Call(helpers.MapLookupElem),
				ebpf.Exit(),
			},
			kind: FaultHelper,
			pc:   2,
		},
		{
			name: "helper-bad-memory-arg",
			insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R1, 0x42), // bad dst pointer
				ebpf.Mov64Imm(ebpf.R2, 8),
				ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -8),
				ebpf.Call(helpers.ProbeRead),
				ebpf.Exit(),
			},
			kind: FaultBadMemory,
			pc:   4,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := &ebpf.Program{Name: "fault-" + tc.name, Insns: tc.insns}
			type outcome struct {
				re *RuntimeError
				st Stats
			}
			got := map[string]outcome{}
			bothEngines(t, prog, tc.cfg, func(name string, m *Machine) {
				_, st, err := m.Run(tc.ctx, tc.pkt)
				if err == nil {
					t.Fatalf("%s: expected fault", name)
				}
				re, ok := AsRuntimeError(err)
				if !ok {
					t.Fatalf("%s: not a RuntimeError: %v", name, err)
				}
				got[name] = outcome{re, st}
			})
			for name, o := range got {
				if o.re.Kind != tc.kind {
					t.Errorf("%s: kind = %s, want %s (%v)", name, o.re.Kind, tc.kind, o.re)
				}
				if o.re.PC != tc.pc {
					t.Errorf("%s: pc = %d, want %d (%v)", name, o.re.PC, tc.pc, o.re)
				}
			}
			f, r := got["fast"], got["ref"]
			if f.re.Detail != r.re.Detail {
				t.Errorf("detail diverges: fast %q, ref %q", f.re.Detail, r.re.Detail)
			}
			if f.re.Error() != r.re.Error() {
				t.Errorf("error string diverges: fast %q, ref %q", f.re.Error(), r.re.Error())
			}
			if f.st != r.st {
				t.Errorf("partial stats diverge:\nfast %+v\nref  %+v", f.st, r.st)
			}
		})
	}
}

// batchCounterProg bumps a per-run counter in a map and returns its value,
// so batch position is observable and map effects persist across packets.
func batchCounterProg() *ebpf.Program {
	return mapProg()
}

func TestRunBatchMatchesSequentialRun(t *testing.T) {
	const n = 8
	pkts := make([][]byte, n)
	ctxs := make([][]byte, n)
	for i := range pkts {
		pkts[i] = make([]byte, 64)
		pkts[i][0] = byte(i)
		ctxs[i] = BuildXDPContext(len(pkts[i]))
	}
	prog := batchCounterProg()

	seq, err := New(prog, Config{Seed: 3, UseHW: true})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := New(prog, Config{Seed: 3, UseHW: true})
	if err != nil {
		t.Fatal(err)
	}

	var out Batch
	if faults := bat.RunBatch(ctxs, pkts, &out); faults != 0 {
		t.Fatalf("faults = %d", faults)
	}
	for i := 0; i < n; i++ {
		rv, st, err := seq.Run(ctxs[i], pkts[i])
		if err != nil {
			t.Fatal(err)
		}
		if out.RV[i] != rv {
			t.Errorf("packet %d: rv = %d, sequential %d", i, out.RV[i], rv)
		}
		if out.Stats[i] != st {
			t.Errorf("packet %d stats diverge:\nbatch %+v\nseq   %+v", i, out.Stats[i], st)
		}
		if out.Errs[i] != nil {
			t.Errorf("packet %d: err = %v", i, out.Errs[i])
		}
	}
	if seq.Total != bat.Total {
		t.Errorf("Total diverges: batch %+v, seq %+v", bat.Total, seq.Total)
	}
}

// TestRunBatchMidBatchFault: a faulting packet mid-batch must not disturb
// earlier packets' effects, must report its error in its own slot, and later
// packets must still be served. Asserted on both engines.
func TestRunBatchMidBatchFault(t *testing.T) {
	// Reads pkt[20]: faults on packets shorter than 21 bytes.
	prog := &ebpf.Program{Name: "deep-read", Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 20),
		ebpf.Exit(),
	}}
	mkBatch := func() ([][]byte, [][]byte) {
		pkts := [][]byte{make([]byte, 64), make([]byte, 4), make([]byte, 64)}
		pkts[0][20] = 0x11
		pkts[2][20] = 0x33
		ctxs := make([][]byte, len(pkts))
		for i := range pkts {
			ctxs[i] = BuildXDPContext(len(pkts[i]))
		}
		return ctxs, pkts
	}

	bothEngines(t, prog, Config{}, func(name string, m *Machine) {
		ctxs, pkts := mkBatch()
		var out Batch
		faults := m.RunBatch(ctxs, pkts, &out)
		if faults != 1 {
			t.Fatalf("%s: faults = %d, want 1", name, faults)
		}
		if out.RV[0] != 0x11 || out.RV[2] != 0x33 {
			t.Errorf("%s: rv = %v", name, out.RV)
		}
		if out.Errs[0] != nil || out.Errs[2] != nil {
			t.Errorf("%s: healthy slots carry errors: %v", name, out.Errs)
		}
		re, ok := AsRuntimeError(out.Errs[1])
		if !ok {
			t.Fatalf("%s: slot 1 error = %v", name, out.Errs[1])
		}
		if re.Kind != FaultBadMemory || re.PC != 1 {
			t.Errorf("%s: slot 1 fault = %v, want bad-memory at pc 1", name, re)
		}
	})
}

// TestRunBatchReusesStorage: a second batch through the same Batch value
// must not grow its slices, and stale errors must be cleared.
func TestRunBatchReusesStorage(t *testing.T) {
	prog := &ebpf.Program{Name: "deep-read", Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 20),
		ebpf.Exit(),
	}}
	m, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	short := make([]byte, 4)
	long := make([]byte, 64)
	var out Batch
	m.RunBatch([][]byte{BuildXDPContext(4)}, [][]byte{short}, &out)
	if out.Errs[0] == nil {
		t.Fatal("first batch should fault")
	}
	if faults := m.RunBatch([][]byte{BuildXDPContext(64)}, [][]byte{long}, &out); faults != 0 {
		t.Fatalf("second batch faults = %d; stale error not cleared: %v", faults, out.Errs[0])
	}
	if out.Errs[0] != nil {
		t.Fatalf("stale error survived Reset: %v", out.Errs[0])
	}
}

// TestDecodeFallbackToRef: a machine whose program failed to pre-decode
// (simulated by clearing code) still runs via the reference interpreter.
func TestDecodeFallbackToRef(t *testing.T) {
	m, err := New(passProg(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.code = nil
	if m.Engine() != "ref" {
		t.Fatalf("engine = %q", m.Engine())
	}
	pkt := make([]byte, 64)
	rv, _, err := m.Run(BuildXDPContext(len(pkt)), pkt)
	if err != nil || rv != 2 {
		t.Fatalf("fallback run: rv=%d err=%v", rv, err)
	}
}

// TestRunBatchZeroAlloc is the batch-serve extension of the existing
// AllocsPerRun guards: steady-state batches through the fast engine
// allocate nothing, with and without metrics attached, for XDP and
// tracepoint programs. (The reference interpreter keeps its historical one
// register-file escape per run; it is exercised here for correctness but
// only the fast engine carries the zero-alloc guarantee.)
func TestRunBatchZeroAlloc(t *testing.T) {
	xdp := &ebpf.Program{Name: "xdp", Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R0, ebpf.R2, 0),
		ebpf.Exit(),
	}}
	tp := &ebpf.Program{Name: "tp", Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.Call(helpers.KtimeGetNS),
		ebpf.Exit(),
	}}

	const bn = 16
	xdpPkts := make([][]byte, bn)
	xdpCtxs := make([][]byte, bn)
	for i := range xdpPkts {
		xdpPkts[i] = make([]byte, 64)
		xdpCtxs[i] = BuildXDPContext(64)
	}
	tpCtxs := make([][]byte, bn)
	for i := range tpCtxs {
		tpCtxs[i] = TracepointContext(uint64(i), 7)
	}

	cases := []struct {
		name string
		prog *ebpf.Program
		ctxs [][]byte
		pkts [][]byte
	}{
		{"xdp", xdp, xdpCtxs, xdpPkts},
		{"tracepoint", tp, tpCtxs, nil},
	}
	for _, tc := range cases {
		for _, withMetrics := range []bool{false, true} {
			name := tc.name + "/bare"
			cfg := Config{UseHW: true}
			if withMetrics {
				name = tc.name + "/metrics"
				cfg.Metrics = NewMetrics(metrics.New())
			}
			t.Run(name, func(t *testing.T) {
				bothEngines(t, tc.prog, cfg, func(engine string, m *Machine) {
					var out Batch
					m.RunBatch(tc.ctxs, tc.pkts, &out) // warm the batch storage
					allocs := testing.AllocsPerRun(100, func() {
						if faults := m.RunBatch(tc.ctxs, tc.pkts, &out); faults != 0 {
							t.Fatalf("%s: faults = %d: %v", engine, faults, firstErr(out.Errs))
						}
					})
					if engine == "fast" && allocs != 0 {
						t.Errorf("%s: RunBatch allocates %.1f per batch, want 0", engine, allocs)
					}
				})
			})
		}
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return errors.New("none")
}

func benchProg() *ebpf.Program {
	// A representative mix: ctx loads, bounds check, packet reads, a map
	// update via atomic, arithmetic, branches.
	return &ebpf.Program{
		Name: "bench",
		Insns: []ebpf.Instruction{
			ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0), // data
			ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8), // data_end
			ebpf.Mov64Reg(ebpf.R4, ebpf.R2),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, 14),
			ebpf.JumpReg(ebpf.JumpGT, ebpf.R4, ebpf.R3, 9), // → drop
			ebpf.LoadMem(ebpf.SizeW, ebpf.R5, ebpf.R2, 0),
			ebpf.LoadMem(ebpf.SizeW, ebpf.R6, ebpf.R2, 4),
			ebpf.ALU64Reg(ebpf.ALUXor, ebpf.R5, ebpf.R6),
			ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R5, 0xff),
			ebpf.Mov64Imm(ebpf.R0, 2), // XDP_PASS
			ebpf.JumpImm(ebpf.JumpNE, ebpf.R5, 0, 1),
			ebpf.Mov64Imm(ebpf.R0, 1),
			ebpf.Exit(),
			ebpf.Mov64Imm(ebpf.R0, 1), // drop
			ebpf.Exit(),
		},
	}
}

func benchMachine(b *testing.B, ref, hw bool) *Machine {
	b.Helper()
	var m *Machine
	var err error
	if ref {
		var rm *RefMachine
		rm, err = NewRef(benchProg(), Config{UseHW: hw})
		if rm != nil {
			m = rm.Machine
		}
	} else {
		m, err = New(benchProg(), Config{UseHW: hw})
	}
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// The HW variants model cache+predictor (the offline netbench config); the
// NoHW variants are the deployment serve config (merlind runs without the
// microarchitectural models).
func BenchmarkRunSingleRef(b *testing.B)      { benchmarkRunSingle(b, true, true) }
func BenchmarkRunSingleFast(b *testing.B)     { benchmarkRunSingle(b, false, true) }
func BenchmarkRunSingleRefNoHW(b *testing.B)  { benchmarkRunSingle(b, true, false) }
func BenchmarkRunSingleFastNoHW(b *testing.B) { benchmarkRunSingle(b, false, false) }

func benchmarkRunSingle(b *testing.B, ref, hw bool) {
	m := benchMachine(b, ref, hw)
	pkt := make([]byte, 64)
	ctx := BuildXDPContext(len(pkt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Run(ctx, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBatchRef(b *testing.B)      { benchmarkRunBatch(b, true, true) }
func BenchmarkRunBatchFast(b *testing.B)     { benchmarkRunBatch(b, false, true) }
func BenchmarkRunBatchRefNoHW(b *testing.B)  { benchmarkRunBatch(b, true, false) }
func BenchmarkRunBatchFastNoHW(b *testing.B) { benchmarkRunBatch(b, false, false) }

func benchmarkRunBatch(b *testing.B, ref, hw bool) {
	m := benchMachine(b, ref, hw)
	const bn = 64
	pkts := make([][]byte, bn)
	ctxs := make([][]byte, bn)
	for i := range pkts {
		pkts[i] = make([]byte, 64)
		ctxs[i] = BuildXDPContext(64)
	}
	var out Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += bn {
		if faults := m.RunBatch(ctxs, pkts, &out); faults != 0 {
			b.Fatal(firstErr(out.Errs))
		}
	}
}

// TestBadTargetFaultsPinned pins the slot table's answers for the three ways
// a branch misses an instruction start — the second slot of an lddw, slot
// -1, and the slot one past the end — on both engines: kind, pc and text.
func TestBadTargetFaultsPinned(t *testing.T) {
	wide := ebpf.LoadImm64(ebpf.R0, 0x1234) // slots 1-2 after a branch at 0
	for _, tc := range []struct {
		name  string
		insns []ebpf.Instruction
		pc    int
		want  string
	}{
		{"ja-into-lddw", []ebpf.Instruction{ebpf.Jump(1), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad jump target"},
		{"ja-to-slot-minus-1", []ebpf.Instruction{ebpf.Jump(-2), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad jump target"},
		{"ja-one-past-end", []ebpf.Instruction{ebpf.Jump(3), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad jump target"},
		{"jeq-into-lddw", []ebpf.Instruction{ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 1), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad branch target"},
		{"jeq-to-slot-minus-1", []ebpf.Instruction{ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, -2), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad branch target"},
		{"jeq-one-past-end", []ebpf.Instruction{ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 3), wide, ebpf.Exit()}, 0,
			"vm: bad-pc at insn 0: bad branch target"},
	} {
		prog := &ebpf.Program{Name: "t", Hook: ebpf.HookXDP, Insns: tc.insns}
		bothEngines(t, prog, Config{}, func(engine string, m *Machine) {
			_, _, err := m.Run(BuildXDPContext(64), make([]byte, 64))
			re, ok := AsRuntimeError(err)
			if !ok || re.Kind != FaultBadPC || re.PC != tc.pc || err.Error() != tc.want {
				t.Errorf("%s/%s: err = %v, want %q", tc.name, engine, err, tc.want)
			}
		})
	}
}
