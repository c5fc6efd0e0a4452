package guard

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"merlin/internal/ebpf"
	"merlin/internal/ir"
)

// FaultMode selects the failure a FaultInjector provokes inside a pass.
type FaultMode string

// Injectable failure modes, one per containment path the guard claims to
// cover.
const (
	// FaultPanic panics inside the pass body.
	FaultPanic FaultMode = "panic"
	// FaultStall sleeps past the pass's wall-clock budget.
	FaultStall FaultMode = "stall"
	// FaultCorrupt semantically corrupts the pass output: the program stays
	// structurally valid but computes a different return value, so only
	// differential execution can catch it.
	FaultCorrupt FaultMode = "corrupt"
	// FaultBadBranch structurally corrupts the pass output (an out-of-range
	// branch at the bytecode tier, a misplaced terminator at the IR tier), so
	// the invariant checks must catch it.
	FaultBadBranch FaultMode = "badbranch"
	// FaultUnverifiable corrupts the output in a way the VM cannot observe
	// but the simulated kernel verifier rejects (an uninitialized-register
	// read at the bytecode tier, an out-of-bounds stack access at the IR
	// tier), forcing the final-verification fallback path.
	FaultUnverifiable FaultMode = "unverifiable"
)

// Modes lists every injectable failure mode.
func Modes() []FaultMode {
	return []FaultMode{FaultPanic, FaultStall, FaultCorrupt, FaultBadBranch, FaultUnverifiable}
}

// ParseFaultMode maps a flag string to a FaultMode.
func ParseFaultMode(s string) (FaultMode, bool) {
	for _, m := range Modes() {
		if string(m) == s {
			return m, true
		}
	}
	return "", false
}

// DefaultPassNames is the pass universe NewFaultInjector draws from: the
// paper's two IR-tier and four bytecode-tier optimizers.
func DefaultPassNames() []string {
	return []string{"DAO", "MoF", "CP&DCE", "SLM", "CC", "PO"}
}

// FaultInjector deterministically injects failures into guarded passes so
// tests and merlin-fuzz can prove the guard catches each failure mode. The
// zero value injects nothing; a nil *FaultInjector is safe to call.
type FaultInjector struct {
	// Pass is the exact name of the targeted pass; "*" targets every pass.
	Pass string
	// Mode is the failure to inject.
	Mode FaultMode
	// StallFor overrides how long FaultStall sleeps. Zero means four times
	// the pass budget.
	StallFor time.Duration

	fired atomic.Int64
}

// NewFaultInjector derives a deterministic injector from a seed: it picks one
// pass (from passes, defaulting to DefaultPassNames) and one failure mode.
// The same seed always targets the same pass with the same mode.
func NewFaultInjector(seed int64, passes ...string) *FaultInjector {
	if len(passes) == 0 {
		passes = DefaultPassNames()
	}
	rng := rand.New(rand.NewSource(seed))
	modes := Modes()
	return &FaultInjector{
		Pass: passes[rng.Intn(len(passes))],
		Mode: modes[rng.Intn(len(modes))],
	}
}

// Fired reports how many times the injector has triggered.
func (fi *FaultInjector) Fired() int {
	if fi == nil {
		return 0
	}
	return int(fi.fired.Load())
}

func (fi *FaultInjector) matches(pass string) bool {
	return fi != nil && fi.Mode != "" && (fi.Pass == "*" || fi.Pass == pass)
}

// Before runs inside the guarded pass ahead of the real transformation:
// FaultPanic panics, FaultStall sleeps past the budget. Other modes are
// applied to the pass output via MutateBytecode/MutateIR.
func (fi *FaultInjector) Before(pass string, budget time.Duration) {
	if !fi.matches(pass) {
		return
	}
	switch fi.Mode {
	case FaultPanic:
		fi.fired.Add(1)
		panic(fmt.Sprintf("guard: injected panic in %s", pass))
	case FaultStall:
		fi.fired.Add(1)
		d := fi.StallFor
		if d <= 0 {
			d = 4 * Budget(budget)
		}
		time.Sleep(d)
	}
}

// MutateBytecode corrupts the output of a bytecode pass according to the
// injector's mode. It returns prog unchanged when the injector does not
// target this pass or the corruption found no applicable site.
func (fi *FaultInjector) MutateBytecode(pass string, prog *ebpf.Program) *ebpf.Program {
	if !fi.matches(pass) {
		return prog
	}
	switch fi.Mode {
	case FaultCorrupt:
		// r0 ^= 0x55 right before every exit: structurally pristine,
		// observably wrong on every input and every path out.
		out := insertBeforeExits(prog, ebpf.ALU64Imm(ebpf.ALUXor, ebpf.R0, 0x55), -1)
		if out != prog {
			fi.fired.Add(1)
		}
		return out
	case FaultBadBranch:
		out := prog.Clone()
		for i, ins := range out.Insns {
			if ins.IsCondJump() || ins.IsUncondJump() {
				out.Insns[i].Offset = 0x7fff // far outside any program we build
				fi.fired.Add(1)
				return out
			}
		}
		// No branch to break: drop the final exit so the program falls off
		// the end instead.
		if n := len(out.Insns); n > 0 && out.Insns[n-1].IsExit() {
			out.Insns = out.Insns[:n-1]
			fi.fired.Add(1)
		}
		return out
	case FaultUnverifiable:
		// r0 += r9 before the first exit: the VM zero-initializes registers,
		// so execution is unchanged whenever r9 is never written — but the
		// verifier rejects the uninitialized read.
		out := insertBeforeExits(prog, ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R9), 1)
		if out != prog {
			fi.fired.Add(1)
		}
		return out
	}
	return prog
}

// insertBeforeExits returns a copy of prog with ins inserted immediately
// before up to max exit instructions, counted from the last (max < 0 means
// all of them), or prog itself if there is no exit or editing fails. A
// branch to a chosen exit lands on the inserted instruction.
func insertBeforeExits(prog *ebpf.Program, ins ebpf.Instruction, max int) *ebpf.Program {
	ed, err := ebpf.MakeEditable(prog)
	if err != nil {
		return prog
	}
	var edits []ebpf.Edit
	for i := len(ed.Insns) - 1; i >= 0 && (max < 0 || len(edits) < max); i-- {
		if ed.Insns[i].IsExit() {
			edits = append(edits, ebpf.Edit{Start: i, End: i, Repl: []ebpf.Instruction{ins}})
		}
	}
	if len(edits) == 0 {
		return prog
	}
	slices.Reverse(edits)
	ed.Splice(edits)
	out, err := ed.Finalize()
	if err != nil {
		return prog
	}
	return out
}

// MutateIR corrupts a post-pass IR module in place according to the
// injector's mode.
func (fi *FaultInjector) MutateIR(pass string, mod *ir.Module) {
	if !fi.matches(pass) {
		return
	}
	switch fi.Mode {
	case FaultCorrupt:
		// Route every returned value through an xor: well-formed IR,
		// different observable result on every path out.
		n := 0
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpRet || len(in.Args) != 1 || in.Args[0].Type() != ir.I64 {
						continue
					}
					inj := &ir.Instr{
						Name: fmt.Sprintf("guard_inject_%d", n), Op: ir.OpBin, Bin: ir.Xor, Ty: ir.I64,
						Args: []ir.Value{in.Args[0], ir.ConstInt(ir.I64, 0x55)}, Parent: b,
					}
					insertBeforeTerminator(b, inj)
					in.Args[0] = inj
					n++
				}
			}
		}
		if n > 0 {
			fi.fired.Add(1)
		}
	case FaultBadBranch:
		// Chop the entry block's terminator: ir.Validate must refuse this.
		for _, f := range mod.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			b := f.Entry()
			if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
				b.Instrs = b.Instrs[:n-1]
				fi.fired.Add(1)
				return
			}
		}
	case FaultUnverifiable:
		// Fold a load from 4KiB past a stack slot into the return value: the
		// verifier rejects the out-of-bounds stack access; under the VM both
		// programs fault identically or the diff check reports divergence.
		ret, blk := findRet(mod)
		if ret == nil {
			return
		}
		base := findAlloca(blk.Fn)
		if base == nil {
			return
		}
		gep := &ir.Instr{Name: "guard_oob_p", Op: ir.OpGEP, Args: []ir.Value{base, ir.ConstInt(ir.I64, 4096)}, Parent: blk}
		ld := &ir.Instr{Name: "guard_oob", Op: ir.OpLoad, Ty: ir.I64, Align: 8, Args: []ir.Value{gep}, Parent: blk}
		inj := &ir.Instr{Name: "guard_oob_x", Op: ir.OpBin, Bin: ir.Xor, Ty: ir.I64, Args: []ir.Value{ret.Args[0], ld}, Parent: blk}
		insertBeforeTerminator(blk, gep, ld, inj)
		ret.Args[0] = inj
		fi.fired.Add(1)
	}
}

// findRet returns the first ret instruction carrying an i64-typed value.
func findRet(mod *ir.Module) (*ir.Instr, *ir.Block) {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpRet && len(in.Args) == 1 && in.Args[0].Type() == ir.I64 {
					return in, b
				}
			}
		}
	}
	return nil, nil
}

// findAlloca returns the first entry-block alloca of f, or nil.
func findAlloca(f *ir.Function) *ir.Instr {
	if f == nil || len(f.Blocks) == 0 {
		return nil
	}
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca {
			return in
		}
	}
	return nil
}

// insertBeforeTerminator splices instrs ahead of b's terminator.
func insertBeforeTerminator(b *ir.Block, instrs ...*ir.Instr) {
	n := len(b.Instrs)
	term := b.Instrs[n-1]
	b.Instrs = append(b.Instrs[:n-1], append(instrs, term)...)
}
