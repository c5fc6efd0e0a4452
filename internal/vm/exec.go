package vm

import (
	"encoding/binary"
	"fmt"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

// BuildXDPContext returns the xdp_md-style context for a packet: two 64-bit
// fields holding the packet data and data_end addresses.
func BuildXDPContext(pktLen int) []byte {
	ctx := make([]byte, 16)
	binary.LittleEndian.PutUint64(ctx[0:], pktBase)
	binary.LittleEndian.PutUint64(ctx[8:], pktBase+uint64(pktLen))
	return ctx
}

// BuildXDPContextInto writes the xdp_md-style context into buf, reusing its
// backing storage when it is large enough. Batch serving loops use it to
// refresh per-packet contexts without allocating: programs may rewrite their
// context in place, so every packet needs a pristine one, but not a fresh
// allocation.
func BuildXDPContextInto(buf []byte, pktLen int) []byte {
	if cap(buf) < 16 {
		return BuildXDPContext(pktLen)
	}
	ctx := buf[:16]
	binary.LittleEndian.PutUint64(ctx[0:], pktBase)
	binary.LittleEndian.PutUint64(ctx[8:], pktBase+uint64(pktLen))
	return ctx
}

// TracepointContext builds a raw-args context: each argument occupies eight
// bytes. Pointer arguments into the machine's Kmem should be passed as
// KmemAddr offsets.
func TracepointContext(args ...uint64) []byte {
	ctx := make([]byte, 8*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint64(ctx[8*i:], a)
	}
	return ctx
}

// KmemAddr converts an offset into Machine.Kmem to a VM address.
func KmemAddr(off int) uint64 { return kmemBase + uint64(off) }

// Run executes the loaded program against a context and (for XDP) a packet
// buffer. It returns r0 and the per-run stats. When Config.Metrics is set
// the run is also recorded there (counters, cycle/instruction histograms,
// fault kinds) without any per-run heap allocation.
func (m *Machine) Run(ctx, pkt []byte) (int64, Stats, error) {
	rv, st, err := m.run(ctx, pkt)
	m.cfg.Metrics.record(st, err)
	return rv, st, err
}

// run dispatches to the pre-decoded engine (decode.go) when the program
// compiled, else to the reference switch interpreter below. RefMachine pins
// m.code to nil so this always takes the reference path.
func (m *Machine) run(ctx, pkt []byte) (int64, Stats, error) {
	if m.code != nil {
		rv, err := m.runFast(ctx, pkt, &m.fr.st)
		return rv, m.fr.st, err
	}
	return m.runRef(ctx, pkt)
}

// runRef is the original switch interpreter — the oracle for
// internal/difftest's cross-engine equivalence rig in everything an engine
// decides for itself: dispatch, memory, cost accounting and its order relative
// to faults, fault kind/pc/detail. A behavior change there must be mirrored in
// decode.go deliberately, not by test failure. What a scalar ALU operation,
// compare or atomic computes is not decided here: both engines call
// ebpf.EvalALU/EvalJump/EvalAtomic (the fast engine directly for its generic
// micro-ops; its inline and fused cases are held to the table by difftest's
// bytecode sweep), and the table is pinned by its own literal golden.
func (m *Machine) runRef(ctx, pkt []byte) (int64, Stats, error) {
	var regs [regSlots]uint64
	regs[1] = ctxBase
	regs[10] = stackBase
	var st Stats
	c := &m.cfg.Costs
	insns := m.prog.Insns
	lay := m.lay
	m.ktime += 1000

	memAccess := func(addr uint64, size int, write bool) ([]byte, int, error) {
		buf, off, err := m.region(addr, size, ctx, pkt)
		if err != nil {
			return nil, 0, err
		}
		st.CacheRefs++
		if m.Cache != nil {
			if !m.Cache.Access(addr) {
				st.CacheMisses++
				st.Cycles += c.CacheMiss
			}
		}
		return buf, off, nil
	}

	branch := func(i int, taken bool) {
		st.Branches++
		st.Cycles += c.Branch
		if m.Pred != nil {
			if !m.Pred.Predict(lay.SlotOf[i], taken) {
				st.BranchMisses++
				st.Cycles += c.BranchMiss
			}
		}
	}

	pc := 0
	for step := 0; ; step++ {
		if step >= m.cfg.StepLimit {
			return 0, st, faultf(FaultStepLimit, pc, "step limit %d exceeded", m.cfg.StepLimit)
		}
		if pc < 0 || pc >= len(insns) {
			return 0, st, faultf(FaultBadPC, -1, "pc %d out of range", pc)
		}
		ins := insns[pc]
		st.Instructions += uint64(ins.Slots())

		switch ins.Class() {
		case ebpf.ClassALU64, ebpf.ClassALU:
			st.Cycles += c.ALU
			op := ins.ALUOpField()
			src := uint64(int64(ins.Imm))
			if ins.SourceField() == ebpf.SourceX && op != ebpf.ALUEnd {
				src = regs[ins.Src]
			}
			r, ok := ebpf.EvalALU(op, ins.Class() == ebpf.ClassALU, regs[ins.Dst], src)
			if !ok {
				return 0, st, faultf(FaultBadInstruction, pc, "unsupported alu op %#x", ins.Opcode)
			}
			regs[ins.Dst] = r
		case ebpf.ClassLD:
			if !ins.IsWide() {
				return 0, st, faultf(FaultBadInstruction, pc, "unsupported legacy ld")
			}
			st.Cycles += c.WideImm
			if ins.IsMapLoad() {
				regs[ins.Dst] = mapHandle + uint64(ins.Imm64)
			} else {
				regs[ins.Dst] = uint64(ins.Imm64)
			}
		case ebpf.ClassLDX:
			st.Cycles += c.Load
			size := ins.SizeField().Bytes()
			buf, off, err := memAccess(regs[ins.Src]+uint64(int64(ins.Offset)), size, false)
			if err != nil {
				return 0, st, wrapFault(err, FaultBadMemory, pc, ebpf.Mnemonic(ins))
			}
			regs[ins.Dst] = loadBytes(buf[off:], size)
		case ebpf.ClassST, ebpf.ClassSTX:
			size := ins.SizeField().Bytes()
			addr := regs[ins.Dst] + uint64(int64(ins.Offset))
			if ins.IsAtomic() {
				st.Cycles += c.Atomic
				buf, off, err := memAccess(addr, size, true)
				if err != nil {
					return 0, st, wrapFault(err, FaultBadMemory, pc, ebpf.Mnemonic(ins))
				}
				old := loadBytes(buf[off:], size)
				nv, ok := ebpf.EvalAtomic(ebpf.AtomicOp(ins.Imm), old, regs[ins.Src])
				if !ok {
					return 0, st, faultf(FaultBadInstruction, pc, "unknown atomic op %#x", ins.Imm)
				}
				storeBytes(buf[off:], size, nv)
			} else {
				st.Cycles += c.Store
				buf, off, err := memAccess(addr, size, true)
				if err != nil {
					return 0, st, wrapFault(err, FaultBadMemory, pc, ebpf.Mnemonic(ins))
				}
				val := regs[ins.Src]
				if ins.Class() == ebpf.ClassST {
					val = uint64(int64(ins.Imm))
				}
				storeBytes(buf[off:], size, val)
			}
		case ebpf.ClassJMP, ebpf.ClassJMP32:
			op := ins.JumpOpField()
			switch op {
			case ebpf.JumpExit:
				st.Cycles += c.Branch
				m.Total.Add(st)
				return int64(regs[0]), st, nil
			case ebpf.JumpCall:
				st.Cycles += c.CallBase
				st.HelperCalls++
				if err := m.call(&regs, ins.Imm, &st, ctx, pkt); err != nil {
					return 0, st, wrapFault(err, FaultHelper, pc, "")
				}
			case ebpf.JumpAlways:
				st.Cycles += c.Branch
				tgt, ok := lay.ElemAt(lay.JumpSlot(pc, ins))
				if !ok {
					return 0, st, faultf(FaultBadPC, pc, "bad jump target")
				}
				pc = tgt
				continue
			default:
				b := uint64(int64(ins.Imm))
				if ins.SourceField() == ebpf.SourceX {
					b = regs[ins.Src]
				}
				// An undefined compare op is never taken.
				taken, _ := ebpf.EvalJump(op, ins.Class() == ebpf.ClassJMP32, regs[ins.Dst], b)
				branch(pc, taken)
				if taken {
					tgt, ok := lay.ElemAt(lay.JumpSlot(pc, ins))
					if !ok {
						return 0, st, faultf(FaultBadPC, pc, "bad branch target")
					}
					pc = tgt
					continue
				}
			}
		default:
			return 0, st, faultf(FaultBadInstruction, pc, "unsupported class %s", ins.Class())
		}
		pc++
	}
}

func loadBytes(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeBytes(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// call dispatches a helper invocation. Bodies live in helpers_exec.go and
// are shared with the pre-decoded engine, which binds them at load time.
func (m *Machine) call(regs *[regSlots]uint64, id int32, st *Stats, ctx, pkt []byte) error {
	spec, ok := helpers.Table[int(id)]
	if !ok {
		return fmt.Errorf("unknown helper %d", id)
	}
	st.Cycles += spec.Cost
	body, ok := helperBodies[int(id)]
	if !ok {
		return fmt.Errorf("helper %s not implemented", spec.Name)
	}
	return body(m, regs, ctx, pkt)
}
