package superopt

import (
	"encoding/hex"
	"testing"

	"merlin/internal/analysis"
	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// The superoptimizer's equivalence proofs run on the pre-decoded fast
// engine (harnessMachine uses vm.New). These tests pin two invariants the
// engine work must never disturb:
//
//  1. Verdict parity — a proof replayed on the reference switch interpreter
//     reaches the same verdict on every proof vector, so verdicts cached
//     before the engine existed stay valid, and
//  2. Cache-key stability — the content-addressed key has no engine
//     dependence at all, pinned byte-for-byte against a golden value.

// refProveEquivalent is proveEquivalent with every harness run on the
// reference interpreter instead of the fast engine.
func refProveEquivalent(t *testing.T, orig, cand []ebpf.Instruction, liveIn, liveOut []ebpf.Register, vecs [][]uint64, seed int64) bool {
	t.Helper()
	for _, out := range liveOut {
		mo, err := vm.NewRef(harnessProgram(orig, liveIn, out), vm.Config{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		mc, err := vm.NewRef(harnessProgram(cand, liveIn, out), vm.Config{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		for _, vec := range vecs {
			ctx := vm.TracepointContext(vec...)
			r1, _, e1 := mo.Run(ctx, nil)
			r2, _, e2 := mc.Run(ctx, nil)
			if (e1 != nil) != (e2 != nil) {
				return false
			}
			if e1 == nil && r1 != r2 {
				return false
			}
		}
	}
	return true
}

func TestProofVerdictEngineParity(t *testing.T) {
	r2, r3 := ebpf.R2, ebpf.R3
	cases := []struct {
		name       string
		orig, cand []ebpf.Instruction
		liveIn     []ebpf.Register
		liveOut    []ebpf.Register
		want       bool
	}{
		{
			name: "fold-add-chain",
			orig: []ebpf.Instruction{
				ebpf.ALU64Imm(ebpf.ALUAdd, r2, 5),
				ebpf.ALU64Imm(ebpf.ALUAdd, r2, 3),
			},
			cand:   []ebpf.Instruction{ebpf.ALU64Imm(ebpf.ALUAdd, r2, 8)},
			liveIn: []ebpf.Register{r2}, liveOut: []ebpf.Register{r2},
			want: true,
		},
		{
			name:   "mul-to-shift",
			orig:   []ebpf.Instruction{ebpf.ALU64Imm(ebpf.ALUMul, r2, 8)},
			cand:   []ebpf.Instruction{ebpf.ALU64Imm(ebpf.ALULsh, r2, 3)},
			liveIn: []ebpf.Register{r2}, liveOut: []ebpf.Register{r2},
			want: true,
		},
		{
			name:   "xor-self-vs-mov-zero",
			orig:   []ebpf.Instruction{ebpf.ALU64Reg(ebpf.ALUXor, r2, r2)},
			cand:   []ebpf.Instruction{ebpf.Mov64Imm(r2, 0)},
			liveIn: []ebpf.Register{r2}, liveOut: []ebpf.Register{r2},
			want: true,
		},
		{
			name:   "wrong-constant",
			orig:   []ebpf.Instruction{ebpf.ALU64Imm(ebpf.ALUAdd, r2, 1)},
			cand:   []ebpf.Instruction{ebpf.ALU64Imm(ebpf.ALUAdd, r2, 2)},
			liveIn: []ebpf.Register{r2}, liveOut: []ebpf.Register{r2},
			want: false,
		},
		{
			// 32-bit add truncates the upper half; only lattice boundary
			// vectors separate it from the 64-bit add. A proof that agrees
			// here agrees on the sign/width boundaries both engines must
			// implement identically.
			name:   "alu32-vs-alu64",
			orig:   []ebpf.Instruction{ebpf.ALU64Reg(ebpf.ALUAdd, r2, r3)},
			cand:   []ebpf.Instruction{ebpf.ALU32Reg(ebpf.ALUAdd, r2, r3)},
			liveIn: []ebpf.Register{r2, r3}, liveOut: []ebpf.Register{r2},
			want: false,
		},
		{
			// Two-register swap-free exchange via xor: exercises multi-insn
			// candidates and multiple live-outs.
			name: "xor-swap",
			orig: []ebpf.Instruction{
				ebpf.ALU64Reg(ebpf.ALUXor, r2, r3),
				ebpf.ALU64Reg(ebpf.ALUXor, r3, r2),
				ebpf.ALU64Reg(ebpf.ALUXor, r2, r3),
			},
			cand: []ebpf.Instruction{
				ebpf.Mov64Reg(ebpf.R4, r2),
				ebpf.Mov64Reg(r2, r3),
				ebpf.Mov64Reg(r3, ebpf.R4),
			},
			liveIn: []ebpf.Register{r2, r3}, liveOut: []ebpf.Register{r2, r3},
			want: true,
		},
	}
	const seed = int64(7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The exact vector recipe searchWindow proves against.
			vecs := newVectorSet(len(tc.liveIn), seed).proof
			fast := proveEquivalent(tc.orig, tc.cand, tc.liveIn, tc.liveOut, vecs, seed)
			ref := refProveEquivalent(t, tc.orig, tc.cand, tc.liveIn, tc.liveOut, vecs, seed)
			if fast != ref {
				t.Fatalf("engines disagree: fast=%v ref=%v", fast, ref)
			}
			if fast != tc.want {
				t.Fatalf("verdict = %v, want %v", fast, tc.want)
			}
		})
	}
}

// TestCacheKeyPinned pins the content-addressed cache key byte-for-byte: it
// must depend only on the canonical window, live-out obligation, ALU32 flag
// and budget — never on which engine proves the verdict — or every cache
// populated before a change silently invalidates.
func TestCacheKeyPinned(t *testing.T) {
	w := window{
		insns: []ebpf.Instruction{
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, 5),
			ebpf.ALU64Reg(ebpf.ALUXor, ebpf.R3, ebpf.R4),
		},
		liveIn:  analysis.RegMask(0).With(ebpf.R3).With(ebpf.R4),
		defs:    analysis.RegMask(0).With(ebpf.R3),
		liveOut: analysis.RegMask(0).With(ebpf.R3),
	}
	got := hex.EncodeToString([]byte(cacheKey(canonicalize(w), true, 40000)))
	// 9-byte insns (op dst src off imm), liveOut mask LE16, flags, budget
	// LE32: {add r0,5}{xor r0,r1} | 0x0001 | alu32 | 40000.
	const want = "070000000005000000af0001000000000000010001409c0000"
	if got != want {
		t.Fatalf("cache key drifted — bump the producer version (Producer, %q) with it:\ngot  %s\nwant %s", Producer, got, want)
	}
}
