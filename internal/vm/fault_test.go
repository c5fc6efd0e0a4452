package vm

import (
	"strings"
	"testing"

	"merlin/internal/ebpf"
)

// faultRun executes insns and returns the typed fault, failing if none fires.
func faultRun(t *testing.T, insns []ebpf.Instruction, cfg Config, ctx, pkt []byte) *RuntimeError {
	t.Helper()
	m, err := New(&ebpf.Program{Name: "fault", Insns: insns}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rerr := m.Run(ctx, pkt)
	if rerr == nil {
		t.Fatal("program expected to fault")
	}
	re, ok := AsRuntimeError(rerr)
	if !ok {
		t.Fatalf("fault is not a RuntimeError: %v", rerr)
	}
	return re
}

func TestFaultStepLimit(t *testing.T) {
	re := faultRun(t, []ebpf.Instruction{
		ebpf.Jump(-1),
		ebpf.Exit(),
	}, Config{StepLimit: 64}, nil, nil)
	if re.Kind != FaultStepLimit {
		t.Fatalf("kind = %s, want %s", re.Kind, FaultStepLimit)
	}
}

func TestFaultBadMemoryCarriesPC(t *testing.T) {
	re := faultRun(t, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 4096), // ctx is 16 bytes
		ebpf.Exit(),
	}, Config{}, BuildXDPContext(64), make([]byte, 64))
	if re.Kind != FaultBadMemory {
		t.Fatalf("kind = %s, want %s", re.Kind, FaultBadMemory)
	}
	if re.PC != 1 {
		t.Fatalf("pc = %d, want 1", re.PC)
	}
}

func TestFaultBadPC(t *testing.T) {
	re := faultRun(t, []ebpf.Instruction{
		ebpf.Jump(100),
		ebpf.Exit(),
	}, Config{}, nil, nil)
	if re.Kind != FaultBadPC {
		t.Fatalf("kind = %s, want %s", re.Kind, FaultBadPC)
	}
}

func TestFaultHelperUnknown(t *testing.T) {
	re := faultRun(t, []ebpf.Instruction{
		ebpf.Call(9999),
		ebpf.Exit(),
	}, Config{}, nil, nil)
	if re.Kind != FaultHelper {
		t.Fatalf("kind = %s, want %s", re.Kind, FaultHelper)
	}
	if re.PC != 0 {
		t.Fatalf("pc = %d, want 0", re.PC)
	}
}

// TestMemoryFaultTextEngineParity: the fast engine keeps no mnemonic per
// load/store — it renders the faulting instruction when a fault is reported —
// so every memory-fault site must still produce, byte for byte, the error the
// reference interpreter does, mnemonic prefix included.
func TestMemoryFaultTextEngineParity(t *testing.T) {
	const wild = 4096 // past the 16-byte context
	for _, tc := range []struct {
		name string
		ins  ebpf.Instruction
		kind FaultKind
	}{
		{"load", ebpf.LoadMem(ebpf.SizeW, ebpf.R0, ebpf.R1, wild), FaultBadMemory},
		{"store", ebpf.StoreMem(ebpf.SizeH, ebpf.R1, wild, ebpf.R2), FaultBadMemory},
		{"store-imm", ebpf.StoreImm(ebpf.SizeB, ebpf.R1, wild, 7), FaultBadMemory},
		{"atomic", ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R1, wild, ebpf.R2), FaultBadMemory},
		// An unknown atomic op resolves its memory access first ...
		{"unknown-atomic-wild", ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicOp(0x70), ebpf.R1, wild, ebpf.R2), FaultBadMemory},
		// ... and is rejected as an instruction only when the access is fine.
		{"unknown-atomic", ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicOp(0x70), ebpf.R10, -8, ebpf.R2), FaultBadInstruction},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &ebpf.Program{Name: tc.name, Insns: []ebpf.Instruction{
				ebpf.Mov64Imm(ebpf.R2, 1), tc.ins, ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit(),
			}}
			fast, err := New(prog, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewRef(prog, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if fast.Engine() != "fast" || ref.Engine() != "ref" {
				t.Fatalf("engines %s/%s", fast.Engine(), ref.Engine())
			}
			_, stF, errF := fast.Run(BuildXDPContext(64), make([]byte, 64))
			_, stR, errR := ref.Run(BuildXDPContext(64), make([]byte, 64))
			if errF == nil || errR == nil {
				t.Fatalf("expected both engines to fault: fast=%v ref=%v", errF, errR)
			}
			if errF.Error() != errR.Error() {
				t.Fatalf("fault text diverged:\nfast %v\nref  %v", errF, errR)
			}
			if stF != stR {
				t.Fatalf("fault accounting diverged:\nfast %+v\nref  %+v", stF, stR)
			}
			re, _ := AsRuntimeError(errF)
			if re.Kind != tc.kind || re.PC != 1 {
				t.Fatalf("fault = %v, want kind %s at insn 1", re, tc.kind)
			}
			if tc.kind == FaultBadMemory && !strings.HasPrefix(re.Detail, ebpf.Mnemonic(tc.ins)+": ") {
				t.Fatalf("detail %q does not start with the mnemonic %q", re.Detail, ebpf.Mnemonic(tc.ins))
			}
		})
	}
}

// TestNewAllocatesNoStringPerLoad: loading pays nothing per instruction for
// text only a fault report reads, nor for lookup tables — a 1000-load program
// loads in a handful of allocations, and a program four times as long does
// not allocate more per instruction.
func TestNewAllocatesNoStringPerLoad(t *testing.T) {
	loads := func(n int) *ebpf.Program {
		insns := make([]ebpf.Instruction, 0, n+2)
		for i := 0; i < n; i++ {
			// Loads, stores and ALU ops: the three decode paths that used to
			// format a mnemonic or build a map literal per instruction.
			insns = append(insns,
				ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, int16(8*(i%2))),
				ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, -8, ebpf.R2),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, 1))
		}
		insns = append(insns, ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
		return &ebpf.Program{Name: "loads", Insns: insns}
	}
	allocs := func(p *ebpf.Program) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := New(p, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := loads(1000), loads(4000)
	a1, a4 := allocs(small), allocs(big)
	if a1 >= 100 {
		t.Errorf("vm.New on %d instructions made %.0f allocations: something is allocated per instruction", len(small.Insns), a1)
	}
	if a4/float64(len(big.Insns)) > a1/float64(len(small.Insns)) {
		t.Errorf("allocations per instruction rose with program size: %.0f for %d, %.0f for %d",
			a1, len(small.Insns), a4, len(big.Insns))
	}
}
