package codegen

import (
	"fmt"

	"merlin/internal/ebpf"
	"merlin/internal/ir"
)

// loc tracks where a block-local value currently lives.
type loc struct {
	reg     ebpf.Register // PseudoReg when not register-resident
	slot    int16         // spill slot offset from R10 (valid when hasSlot)
	hasSlot bool
	clean   bool // for sub-64-bit values: upper register bits are zero
}

// regAlloc is the per-block register allocator: a greedy linear scan with
// farthest-next-use spilling. All instruction values are block-local (the IR
// has no phis), so no state survives past the block.
type regAlloc struct {
	lw     *lowerer
	block  *ir.Block
	pos    int
	locs   map[*ir.Instr]*loc
	inReg  [ebpf.NumRegisters]*ir.Instr
	pinned [ebpf.NumRegisters]bool
	uses   map[*ir.Instr][]int // ascending use positions within the block
	cross  map[*ir.Instr]bool  // live range crosses a helper call
	fused  map[*ir.Instr]bool  // icmps folded into the terminator
}

// Register pools. R0-R5 are clobbered by calls; R6 is reserved to pin the
// first parameter (the program context), following the universal eBPF idiom
// of saving r1 into r6 at entry.
var (
	callerRegs = []ebpf.Register{ebpf.R1, ebpf.R2, ebpf.R3, ebpf.R4, ebpf.R5, ebpf.R0}
	calleeRegs = []ebpf.Register{ebpf.R7, ebpf.R8, ebpf.R9}
	// allocRegs is the spill-victim scan order: caller pool, then callee.
	allocRegs = append(append([]ebpf.Register{}, callerRegs...), calleeRegs...)
)

func (lw *lowerer) paramReg(p *ir.Param) (ebpf.Register, error) {
	for i, prm := range lw.fn.Params {
		if prm == p {
			if i > 0 {
				return 0, fmt.Errorf("multiple parameters are not supported (param %s)", p.Name)
			}
			return ebpf.R6, nil
		}
	}
	return 0, fmt.Errorf("unknown parameter %s", p.Name)
}

func (lw *lowerer) lowerBlock(b *ir.Block, next *ir.Block) error {
	ra := &regAlloc{
		lw: lw, block: b,
		locs:  map[*ir.Instr]*loc{},
		uses:  map[*ir.Instr][]int{},
		cross: map[*ir.Instr]bool{},
		fused: map[*ir.Instr]bool{},
	}
	// Entry block prologue: pin the context parameter into R6.
	if b == lw.fn.Entry() && len(lw.fn.Params) > 0 {
		lw.emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1))
	}
	// Use positions. A use of a const-offset GEP is really a use of the
	// underlying base value, because folded GEPs emit no code of their own.
	record := func(a ir.Value, i int) {
		if ai, ok := gepRoot(a).(*ir.Instr); ok {
			ra.uses[ai] = append(ra.uses[ai], i)
		}
	}
	def := map[*ir.Instr]int{}
	callAt := []int{}
	for i, in := range b.Instrs {
		if in.Op == ir.OpCall {
			callAt = append(callAt, i)
		}
		for _, a := range in.Args {
			record(a, i)
		}
		def[in] = i
	}
	// Icmps used only by the terminator are fused into it: their operands
	// stay live until the terminator is emitted.
	if term := b.Terminator(); term != nil && term.Op == ir.OpCondBr {
		if cmp, ok := term.Args[0].(*ir.Instr); ok && cmp.Op == ir.OpICmp && cmp.Parent == b && len(ra.uses[cmp]) == 1 {
			ra.fused[cmp] = true
			tpos := len(b.Instrs) - 1
			for _, a := range cmp.Args {
				record(a, tpos)
			}
		}
	}
	for v, us := range ra.uses {
		d, ok := def[v]
		if !ok {
			continue // function-scoped alloca defined elsewhere
		}
		last := us[len(us)-1]
		for _, c := range callAt {
			if c > d && c <= last && b.Instrs[c] != v {
				ra.cross[v] = true
			}
		}
	}
	lw.regs = ra
	for i, in := range b.Instrs {
		ra.pos = i
		if err := lw.lowerInstr(in, next); err != nil {
			return fmt.Errorf("%s: %w", ir.FormatInstr(in), err)
		}
		ra.releaseDead(i)
		ra.unpinAll()
	}
	return nil
}

func (ra *regAlloc) unpinAll() {
	for i := range ra.pinned {
		ra.pinned[i] = false
	}
}

// releaseDead frees registers of values whose last use was at position i.
// Every register-resident value is in inReg (locs[v].reg == r exactly when
// inReg[r] == v), so the walk is over the register file, not over every value
// the block has located so far.
func (ra *regAlloc) releaseDead(i int) {
	for r, v := range ra.inReg {
		if v == nil {
			continue
		}
		us := ra.uses[v]
		if len(us) == 0 || us[len(us)-1] <= i {
			ra.inReg[r] = nil
			ra.locs[v].reg = ebpf.PseudoReg
		}
	}
}

// nextUseAfter returns v's next use position after p, or a large sentinel.
func (ra *regAlloc) nextUseAfter(v *ir.Instr, p int) int {
	for _, u := range ra.uses[v] {
		if u > p {
			return u
		}
	}
	return 1 << 30
}

// takeFree claims a free register from the given pool, or PseudoReg.
func (ra *regAlloc) takeFree(pool []ebpf.Register) ebpf.Register {
	for _, r := range pool {
		if ra.inReg[r] == nil && !ra.pinned[r] {
			return r
		}
	}
	return ebpf.PseudoReg
}

// spillSlot assigns (once) a stack slot for v.
func (ra *regAlloc) spillSlot(v *ir.Instr) (int16, error) {
	l := ra.locs[v]
	if l.hasSlot {
		return l.slot, nil
	}
	ra.lw.frameSize = alignUp(ra.lw.frameSize+8, 8)
	if ra.lw.frameSize > 512 {
		return 0, fmt.Errorf("stack frame exceeds 512 bytes (spill pressure)")
	}
	l.slot, l.hasSlot = int16(-ra.lw.frameSize), true
	return l.slot, nil
}

// spill stores the value occupying r to its stack slot and frees r.
func (ra *regAlloc) spill(r ebpf.Register) error {
	v := ra.inReg[r]
	if v == nil {
		return nil
	}
	slot, err := ra.spillSlot(v)
	if err != nil {
		return err
	}
	ra.lw.emit(ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, slot, r))
	ra.inReg[r] = nil
	ra.locs[v].reg = ebpf.PseudoReg
	return nil
}

// alloc claims a register for a new value (or a temp when v is nil),
// spilling the live value with the farthest next use if every register is
// occupied. preferCallee biases values that live across helper calls.
func (ra *regAlloc) alloc(v *ir.Instr, preferCallee bool) (ebpf.Register, error) {
	first, second := callerRegs, calleeRegs
	if preferCallee {
		first, second = calleeRegs, callerRegs
	}
	r := ra.takeFree(first)
	if r == ebpf.PseudoReg {
		r = ra.takeFree(second)
	}
	if r != ebpf.PseudoReg {
		ra.claim(r, v)
		return r, nil
	}
	// Spill the unpinned victim whose next use is farthest away.
	victim, worst := ebpf.PseudoReg, -1
	for _, r := range allocRegs {
		if ra.pinned[r] || ra.inReg[r] == nil {
			continue
		}
		if d := ra.nextUseAfter(ra.inReg[r], ra.pos-1); d > worst {
			victim, worst = r, d
		}
	}
	if victim == ebpf.PseudoReg {
		return 0, fmt.Errorf("register pressure too high: all registers pinned")
	}
	if err := ra.spill(victim); err != nil {
		return 0, err
	}
	ra.claim(victim, v)
	return victim, nil
}

func (ra *regAlloc) claim(r ebpf.Register, v *ir.Instr) {
	ra.inReg[r] = v
	ra.pinned[r] = true
	if v != nil {
		l := ra.ensureLoc(v)
		l.reg = r
	}
}

func (ra *regAlloc) ensureLoc(v *ir.Instr) *loc {
	l := ra.locs[v]
	if l == nil {
		l = &loc{reg: ebpf.PseudoReg}
		ra.locs[v] = l
	}
	return l
}

// freeTemp releases a temp register claimed with alloc(nil, ...).
func (ra *regAlloc) freeTemp(r ebpf.Register) {
	if ra.inReg[r] == nil {
		ra.pinned[r] = false
	}
}

// valueReg returns the register currently holding instruction value v,
// reloading it from its spill slot if needed. The register is pinned for the
// remainder of the current IR instruction.
func (ra *regAlloc) valueReg(v *ir.Instr) (ebpf.Register, error) {
	l := ra.ensureLoc(v)
	if l.reg != ebpf.PseudoReg {
		ra.pinned[l.reg] = true
		return l.reg, nil
	}
	if !l.hasSlot {
		return 0, fmt.Errorf("value %%%s has no location (use before def?)", v.Name)
	}
	r, err := ra.alloc(v, ra.cross[v])
	if err != nil {
		return 0, err
	}
	ra.lw.emit(ebpf.LoadMem(ebpf.SizeDW, r, ebpf.R10, l.slot))
	return r, nil
}

// isClean reports whether a value's upper bits are known zero at its width.
func (ra *regAlloc) isClean(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Const:
		return true
	case *ir.Param:
		return true
	case *ir.Instr:
		if x.Type().Bytes() == 8 {
			return true
		}
		if l, ok := ra.locs[x]; ok {
			return l.clean
		}
	}
	return true
}

// fitsImm32 reports whether the 64-bit pattern v can be produced by a
// sign-extended 32-bit immediate.
func fitsImm32(v uint64) bool { return int64(v) >= -0x80000000 && int64(v) <= 0x7fffffff }

// constBits returns the canonical zero-extended bit pattern of c.
func constBits(c *ir.Const) uint64 {
	switch c.Ty.Bytes() {
	case 1:
		return uint64(c.Val) & 0xff
	case 2:
		return uint64(c.Val) & 0xffff
	case 4:
		return uint64(c.Val) & 0xffffffff
	}
	return uint64(c.Val)
}

// materializeConst emits code loading the zero-extended constant into r.
func (lw *lowerer) materializeConst(r ebpf.Register, bits uint64) {
	if fitsImm32(bits) {
		lw.emit(ebpf.Mov64Imm(r, int32(int64(bits))))
		return
	}
	lw.emit(ebpf.LoadImm64(r, int64(bits)))
}

// operandReg places any operand value into a register. Temps created for
// constants (and materialized pointers) must be freed by the caller via
// freeTemp when isTemp is true.
func (lw *lowerer) operandReg(v ir.Value) (r ebpf.Register, isTemp bool, err error) {
	ra := lw.regs
	switch x := v.(type) {
	case *ir.Const:
		r, err = ra.alloc(nil, false)
		if err != nil {
			return 0, false, err
		}
		lw.materializeConst(r, constBits(x))
		return r, true, nil
	case *ir.Param:
		r, err = lw.paramReg(x)
		return r, false, err
	case *ir.Instr:
		switch x.Op {
		case ir.OpAlloca:
			r, err = ra.alloc(nil, false)
			if err != nil {
				return 0, false, err
			}
			lw.emit(ebpf.Mov64Reg(r, ebpf.R10))
			lw.emit(ebpf.ALU64Imm(ebpf.ALUAdd, r, int32(lw.allocaOff[x])))
			return r, true, nil
		case ir.OpMapPtr:
			r, err = ra.alloc(nil, false)
			if err != nil {
				return 0, false, err
			}
			lw.emit(ebpf.LoadMapPtr(r, lw.mapIndex(x.Map)))
			return r, true, nil
		case ir.OpGEP:
			if base, off, ok := lw.foldedAddr(x); ok {
				// Materialize base+offset into a temp.
				r, err = ra.alloc(nil, false)
				if err != nil {
					return 0, false, err
				}
				lw.emit(ebpf.Mov64Reg(r, base))
				if off != 0 {
					lw.emit(ebpf.ALU64Imm(ebpf.ALUAdd, r, int32(off)))
				}
				return r, true, nil
			}
			r, err = ra.valueReg(x)
			return r, false, err
		default:
			r, err = ra.valueReg(x)
			return r, false, err
		}
	}
	return 0, false, fmt.Errorf("unsupported operand %T", v)
}

func (lw *lowerer) mapIndex(md *ir.MapDef) int {
	for i, m := range lw.mod.Maps {
		if m == md {
			return i
		}
	}
	return -1
}

// foldedAddr resolves a pointer expression into base register + constant
// offset when possible: allocas, const-offset GEP chains over resolvable
// bases, parameters, and register-resident pointers.
func (lw *lowerer) foldedAddr(v ir.Value) (ebpf.Register, int16, bool) {
	base, off, ok := lw.addrChain(v, 0)
	if !ok || off < -32768 || off > 32767 {
		return 0, 0, false
	}
	return base, int16(off), true
}

func (lw *lowerer) addrChain(v ir.Value, acc int64) (ebpf.Register, int64, bool) {
	switch x := v.(type) {
	case *ir.Param:
		r, err := lw.paramReg(x)
		if err != nil {
			return 0, 0, false
		}
		return r, acc, true
	case *ir.Instr:
		switch x.Op {
		case ir.OpAlloca:
			return ebpf.R10, acc + int64(lw.allocaOff[x]), true
		case ir.OpGEP:
			c, ok := x.Args[1].(*ir.Const)
			if !ok {
				break
			}
			return lw.addrChain(x.Args[0], acc+c.Val)
		}
		// Register-resident pointer (load result, call result, gep-var...).
		if l, ok := lw.regs.locs[x]; ok && (l.reg != ebpf.PseudoReg || l.hasSlot) {
			r, err := lw.regs.valueReg(x)
			if err != nil {
				return 0, 0, false
			}
			return r, acc, true
		}
	}
	return 0, 0, false
}
