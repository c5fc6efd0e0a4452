package guard

import (
	"bytes"
	"fmt"
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// DiffPrograms — the differential proof gating every optimizer pass — runs
// on the reference switch interpreter. This test replays the exact same
// proof on the pre-decoded fast engine and requires the identical verdict,
// down to the error text: a verdict that depends on which engine proved it
// would silently change which rewrites are accepted.

// fastDiffPrograms mirrors DiffPrograms on the pre-decoded engine.
func fastDiffPrograms(pre, post *ebpf.Program, inputs []Input) error {
	if len(pre.Maps) != len(post.Maps) {
		return fmt.Errorf("guard: map count changed: %d -> %d", len(pre.Maps), len(post.Maps))
	}
	a, err := vm.New(pre, vm.Config{Seed: 7})
	if err != nil {
		return fmt.Errorf("guard: load pre: %w", err)
	}
	b, err := vm.New(post, vm.Config{Seed: 7})
	if err != nil {
		return fmt.Errorf("guard: load post: %w", err)
	}
	for i, in := range inputs {
		ra, _, errA := a.Run(in.Ctx, in.Pkt)
		rb, _, errB := b.Run(in.Ctx, in.Pkt)
		if (errA == nil) != (errB == nil) {
			return fmt.Errorf("guard: input %d: error divergence: %v vs %v", i, errA, errB)
		}
		if ra != rb {
			return fmt.Errorf("guard: input %d: result %d vs %d", i, ra, rb)
		}
	}
	for i := range pre.Maps {
		if !bytes.Equal(a.Map(i).Backing(), b.Map(i).Backing()) {
			return fmt.Errorf("guard: map %d (%s) diverged", i, pre.Maps[i].Name)
		}
	}
	return nil
}

func TestDiffVerdictEngineParity(t *testing.T) {
	tp := func(name string, insns ...ebpf.Instruction) *ebpf.Program {
		return &ebpf.Program{Name: name, Hook: ebpf.HookTracepoint, Insns: insns}
	}
	argSum := tp("sum",
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R2),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	)
	argSumFolded := tp("sum-folded",
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	)
	argSumOff := tp("sum-off",
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R1, 8),
		ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R3),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R0, 1),
		ebpf.Exit(),
	)
	wildLoad := tp("wild",
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 4096),
		ebpf.Exit(),
	)
	cases := []struct {
		name      string
		pre, post *ebpf.Program
		hook      ebpf.HookType
		wantOK    bool
	}{
		{"identical", argSum, argSum, ebpf.HookTracepoint, true},
		{"equivalent-rewrite", argSum, argSumFolded, ebpf.HookTracepoint, true},
		{"result-divergence", argSum, argSumOff, ebpf.HookTracepoint, false},
		{"fault-divergence", argSum, wildLoad, ebpf.HookTracepoint, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := Inputs(tc.hook, 16, 99)
			ref := DiffPrograms(tc.pre, tc.post, inputs)
			fast := fastDiffPrograms(tc.pre, tc.post, inputs)
			if (fast == nil) != (ref == nil) {
				t.Fatalf("engines disagree: fast=%v ref=%v", fast, ref)
			}
			if fast != nil && fast.Error() != ref.Error() {
				t.Fatalf("verdict text diverged:\nfast %v\nref  %v", fast, ref)
			}
			if (fast == nil) != tc.wantOK {
				t.Fatalf("verdict = %v, wantOK %v", fast, tc.wantOK)
			}
		})
	}
}

// TestDiffVerdictEngineParityXDP runs the packet-shaped input generator
// through both engines on an XDP drop/pass pair.
func TestDiffVerdictEngineParityXDP(t *testing.T) {
	xdp := func(name string, verdict int32) *ebpf.Program {
		return &ebpf.Program{Name: name, Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
			ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
			ebpf.LoadMem(ebpf.SizeB, ebpf.R7, ebpf.R6, 0),
			ebpf.Mov64Imm(ebpf.R0, verdict),
			ebpf.Exit(),
		}}
	}
	inputs := Inputs(ebpf.HookXDP, 16, 42)
	for _, tc := range []struct {
		name      string
		pre, post *ebpf.Program
		wantOK    bool
	}{
		{"same-verdict", xdp("pass-a", 2), xdp("pass-b", 2), true},
		{"flipped-verdict", xdp("pass", 2), xdp("drop", 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := DiffPrograms(tc.pre, tc.post, inputs)
			fast := fastDiffPrograms(tc.pre, tc.post, inputs)
			if (fast == nil) != (ref == nil) ||
				(fast != nil && fast.Error() != ref.Error()) {
				t.Fatalf("engines disagree:\nfast %v\nref  %v", fast, ref)
			}
			if (fast == nil) != tc.wantOK {
				t.Fatalf("verdict = %v, wantOK %v", fast, tc.wantOK)
			}
		})
	}
}
