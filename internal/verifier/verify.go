package verifier

import (
	"fmt"
	"strings"
	"time"

	"merlin/internal/ebpf"
)

// KernelVersion selects the pruning heuristics to emulate (Table 5 studies
// their effect on state counts).
type KernelVersion int

// Emulated kernel versions.
const (
	// V519 checkpoints at jump targets and hashes scalar ranges exactly.
	V519 KernelVersion = 519
	// V65 also checkpoints after helper calls and hashes scalars coarsely
	// (known vs unknown), pruning more aggressively per site.
	V65 KernelVersion = 65
)

// Limits mirrors the kernel's verification limits.
type Limits struct {
	// MaxProcessedInsns is the 1M complexity budget (kernel ≥ 5.2).
	MaxProcessedInsns int
	// MaxStates caps the pending-state stack.
	MaxStates int
}

// DefaultLimits returns the kernel defaults.
func DefaultLimits() Limits {
	return Limits{MaxProcessedInsns: 1_000_000, MaxStates: 100_000}
}

// Options configures a verification run.
type Options struct {
	Version KernelVersion
	Limits  Limits
	// LogLevel > 0 collects a kernel-style per-instruction log.
	LogLevel int
}

// Stats reports the verification outcome and cost metrics.
type Stats struct {
	Passed bool
	Err    error
	// NPI is the number of processed instructions across all paths
	// (insn_processed in the kernel log).
	NPI int
	// TotalStates and PeakStates mirror the kernel's state counters.
	TotalStates int
	PeakStates  int
	Duration    time.Duration
	Log         string
}

// ctxSize returns the context byte size per hook, and whether offset 0/8
// carry packet pointers (XDP).
func ctxSize(h ebpf.HookType) int {
	switch h {
	case ebpf.HookXDP:
		return 16
	case ebpf.HookSocketFilter:
		return 16
	default:
		return 64 // tracepoint/kprobe arg block
	}
}

// Verify statically checks prog. It never executes the program.
func Verify(prog *ebpf.Program, opts Options) Stats {
	start := time.Now()
	if opts.Limits == (Limits{}) {
		opts.Limits = DefaultLimits()
	}
	if opts.Version == 0 {
		opts.Version = V65
	}
	v := &checker{prog: prog, opts: opts}
	err := v.run()
	st := Stats{
		Passed:      err == nil,
		Err:         err,
		NPI:         v.npi,
		TotalStates: v.totalStates,
		PeakStates:  v.peakStates,
		Duration:    time.Since(start),
		Log:         v.log.String(),
	}
	return st
}

type checker struct {
	prog *ebpf.Program
	opts Options

	npi         int
	totalStates int
	peakStates  int
	stored      int
	nextID      uint32
	branchSeen  int
	seen        [][]*state // per element, the states stored at its checkpoint
	log         strings.Builder

	// element/slot mapping
	lay ebpf.Layout
	// checkpoint sites, per element (jump targets; + post-call sites on V65)
	checkpoint []bool
}

func (v *checker) logf(format string, args ...interface{}) {
	if v.opts.LogLevel > 0 {
		fmt.Fprintf(&v.log, format, args...)
	}
}

func (v *checker) run() error {
	prog := v.prog
	if len(prog.Insns) == 0 {
		return fmt.Errorf("empty program")
	}
	if prog.NI() > 1_000_000 {
		return fmt.Errorf("program too large: %d insns", prog.NI())
	}
	last := prog.Insns[len(prog.Insns)-1]
	if !last.IsExit() && !last.IsUncondJump() {
		return fmt.Errorf("program does not end with exit")
	}
	v.lay = prog.Layout()
	v.seen = make([][]*state, len(prog.Insns))
	v.checkpoint = make([]bool, len(prog.Insns))
	targets, err := prog.Targets()
	if err != nil {
		return err
	}
	for i, t := range targets {
		if t >= 0 {
			if t >= len(prog.Insns) {
				return fmt.Errorf("branch at %d falls off the program", i)
			}
			v.checkpoint[t] = true
		}
		if v.opts.Version == V65 && prog.Insns[i].IsCall() && i+1 < len(prog.Insns) {
			v.checkpoint[i+1] = true
		}
	}
	// check_cfg analog: every instruction must be reachable from the entry,
	// as the kernel requires ("unreachable insn").
	if bad := firstUnreachable(prog, targets); bad >= 0 {
		return fmt.Errorf("unreachable insn %d", v.lay.SlotOf[bad])
	}

	init := &state{}
	init.regs[1] = RegState{Type: PtrToCtx}
	init.regs[10] = RegState{Type: PtrToStack}
	pending := []*state{init}
	v.totalStates = 1
	v.peakStates = 1

	for len(pending) > 0 {
		st := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for {
			if v.npi >= v.opts.Limits.MaxProcessedInsns {
				return fmt.Errorf("BPF program is too large. Processed %d insn", v.npi)
			}
			if st.pc < 0 || st.pc >= len(v.prog.Insns) {
				return fmt.Errorf("jump out of range to insn %d", st.pc)
			}
			// Prune at checkpoints via state subsumption.
			if v.checkpoint[st.pc] {
				exact := v.opts.Version == V519
				pruned := false
				for _, old := range v.seen[st.pc] {
					if old.subsumes(st, exact) {
						pruned = true
						break
					}
				}
				if pruned {
					break
				}
				// Remember this state for future pruning (bounded per site,
				// like the kernel's state lists).
				if len(v.seen[st.pc]) < 64 {
					v.seen[st.pc] = append(v.seen[st.pc], st.clone())
					v.stored++
					v.totalStates++
				}
			}
			ins := v.prog.Insns[st.pc]
			v.npi += ins.Slots()
			if v.opts.LogLevel > 0 {
				// Rendering the mnemonic is most of a quiet verification's
				// cost; format the line only when the log is kept.
				v.logf("%d: (%02x) %s\n", v.lay.SlotOf[st.pc], ins.Opcode, ebpf.Mnemonic(ins))
			}

			// Periodic checkpointing, as the kernel does after enough
			// processed instructions: placement depends on instruction
			// positions, which is what makes state counts shift when
			// programs are optimized and differ across kernel versions
			// (Table 5). V6.5 checkpoints twice as densely as V5.19.
			if ins.IsCondJump() {
				period := 32
				if v.opts.Version == V65 {
					period = 16
				}
				if v.npi-v.branchSeen >= period {
					v.branchSeen = v.npi
					if t, ok := v.lay.ElemAt(v.lay.JumpSlot(st.pc, ins)); ok {
						v.checkpoint[t] = true
					}
					if st.pc+1 < len(v.prog.Insns) {
						v.checkpoint[st.pc+1] = true
					}
				}
			}

			next, branched, done, err := v.step(st, ins)
			if err != nil {
				return fmt.Errorf("insn %d: %s: %w", v.lay.SlotOf[st.pc], ebpf.Mnemonic(ins), err)
			}
			if done {
				break
			}
			if branched != nil {
				if len(pending) >= v.opts.Limits.MaxStates {
					return fmt.Errorf("too many pending states")
				}
				pending = append(pending, branched)
				v.totalStates++
				if n := len(pending) + v.stored + 1; n > v.peakStates {
					v.peakStates = n
				}
			}
			st = next
		}
	}
	v.logf("processed %d insns\n", v.npi)
	return nil
}

// firstUnreachable returns the element index of the first instruction not
// reachable from the entry, or -1.
func firstUnreachable(prog *ebpf.Program, targets []int) int {
	n := len(prog.Insns)
	seen := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		ins := prog.Insns[i]
		if t := targets[i]; t >= 0 {
			stack = append(stack, t)
		}
		if !ins.Terminates() {
			stack = append(stack, i+1)
		}
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			return i
		}
	}
	return -1
}

// step executes one instruction symbolically. It returns the continuing
// state, an optional extra state to explore (the other branch arm), and
// done=true when the path ended (exit or pruned).
func (v *checker) step(st *state, ins ebpf.Instruction) (*state, *state, bool, error) {
	switch ins.Class() {
	case ebpf.ClassALU64, ebpf.ClassALU:
		if err := v.alu(st, ins); err != nil {
			return nil, nil, false, err
		}
	case ebpf.ClassLD:
		if !ins.IsWide() {
			return nil, nil, false, fmt.Errorf("legacy ld not supported")
		}
		if ins.IsMapLoad() {
			idx := int(ins.Imm64)
			if idx < 0 || idx >= len(v.prog.Maps) {
				return nil, nil, false, fmt.Errorf("bad map index %d", idx)
			}
			st.regs[ins.Dst] = RegState{Type: PtrToMapHandle, MapIdx: idx}
		} else {
			st.regs[ins.Dst] = scalarConst(uint64(ins.Imm64))
		}
	case ebpf.ClassLDX:
		val, err := v.load(st, ins)
		if err != nil {
			return nil, nil, false, err
		}
		st.regs[ins.Dst] = val
	case ebpf.ClassST, ebpf.ClassSTX:
		if err := v.store(st, ins); err != nil {
			return nil, nil, false, err
		}
	case ebpf.ClassJMP, ebpf.ClassJMP32:
		switch ins.JumpOpField() {
		case ebpf.JumpExit:
			if st.regs[0].Type == NotInit {
				return nil, nil, false, fmt.Errorf("R0 !read_ok")
			}
			return nil, nil, true, nil
		case ebpf.JumpCall:
			if err := v.call(st, ins); err != nil {
				return nil, nil, false, err
			}
		case ebpf.JumpAlways:
			tgt, ok := v.lay.ElemAt(v.lay.JumpSlot(st.pc, ins))
			if !ok {
				return nil, nil, false, fmt.Errorf("jump into the middle of an instruction")
			}
			st.pc = tgt
			return st, nil, false, nil
		default:
			return v.condJump(st, ins)
		}
	default:
		return nil, nil, false, fmt.Errorf("unknown class")
	}
	st.pc++
	return st, nil, false, nil
}
