package vm

import (
	"encoding/binary"
	"fmt"

	"merlin/internal/ebpf"
	"merlin/internal/helpers"
)

// This file implements the pre-decoded execution engine. At load time
// compile() translates the program into a []uop — a micro-op stream with
// every operand already resolved: register numbers, sign-extended (and
// pre-masked) immediates, branch targets as element indices, map handles
// folded into lddw constants, and helper calls bound to their spec cost and
// body. runFast executes the stream in one tight switch loop. All decoding,
// table lookups and branch-target resolution happened once, at load.
//
// What a scalar instruction computes is stated once, in internal/ebpf
// (EvalALU, EvalJump, EvalAtomic), and this engine holds one rule about when
// it may say it again: an operation gets an inline or fused case only if some
// corpus program executes it (TestSpecialisedKindsOccurInCorpus fails on a
// specialisation nobody's program reaches). That is the 64-bit
// mov/add/sub/and/or/xor/lsh/rsh, mov32, the jeq/jne/jle compares, the
// width-specialised loads and stores with their region checks inlined, and
// the fused groups below. Everything else — 64-bit mul/div/mod/neg/arsh,
// every other 32-bit ALU form, byte swaps, the other eight compares, all of
// JMP32, atomics — is the table itself, called through the generic
// kAluI/kAluR/kJccI/kJccR kinds and the atomic closure. The inline cases are
// held to the table by internal/difftest's bytecode sweep.
//
// Two further load-time transformations matter for speed:
//
//   - The uop struct holds only the hot 24 bytes the dispatch loop touches
//     (kind, registers, two operand words, branch target). Everything
//     touched rarely — pre-built fault errors, the generic kinds' op and
//     width, closures, branch-predictor keys — lives in a parallel cold
//     table indexed by the same pc, so large programs keep several times
//     more of their instruction stream resident in L1. A memory fault's
//     mnemonic is not stored at all: the fault branch renders it from the
//     program, so loading pays nothing for text only a fault report reads.
//
//   - fuse() combines the corpus's hottest consecutive micro-op pairs and
//     triples (the mov/shift/sub chains of hashing and field-extraction
//     code) into single superinstructions, removing a dispatch per fused
//     element. Fused ops charge exactly the per-instruction cycles and
//     step-limit iterations of their parts: when the step limit would
//     expire between two fused halves, the op executes only the first half
//     and lets the ordinary loop-head check fault at the second half's pc
//     (whose original uop still occupies its slot), so even mid-pair
//     step-limit faults are bit-identical to the reference interpreter.
//
// The cycle/cache cost model is preserved as an accounting layer: each
// micro-op charges exactly the cycles, cache references and branch-predictor
// events the reference interpreter (exec.go) charges, in the same order
// relative to faults, so both engines produce identical Stats and identical
// RuntimeError kind/pc/detail on every input. internal/difftest holds the
// rig that proves this continuously; RefMachine (ref.go) pins the original
// switch interpreter as the oracle for everything but the table, which
// ebpf.TestScalarSemanticsGolden pins on its own.

// Sentinel next-pc values a dop closure can return instead of an element
// index.
const (
	opExit  = -1 // clean exit; fr.rv holds r0
	opFault = -2 // runtime fault; fr.err holds the error
)

// regSlots pads the architectural registers (ebpf.NumRegisters = 11) to a
// power of two so fused micro-ops can index the register file with packed
// nibbles (&15) without bounds checks. Slots 11-15 are never named by a
// valid instruction and stay zero.
const regSlots = 16

// frame is the per-run machine state of the fast engine: register file,
// stats accumulator and the run's memory arguments. It is embedded in
// Machine (m.fr) and reused across runs so executing allocates nothing.
// stp points at the Stats being filled by the current run — &fr.st for
// single runs, the caller's Batch.Stats slot during RunBatch, so batch
// serving skips a per-packet 56-byte copy.
type frame struct {
	regs [regSlots]uint64
	st   Stats
	stp  *Stats
	ctx  []byte
	pkt  []byte
	rv   int64
	err  error
}

// dop is a pre-bound closure for a complex instruction (helper call, atomic,
// always-faulting op): execute against the frame, return the next element
// index or a sentinel. Closures account their own instructions and cycles.
type dop func(m *Machine, fr *frame) int

// Micro-op kinds. The zero value is the closure escape hatch so a
// half-initialized uop can never be misread as an inline op.
const (
	kClosure uint8 = iota // invoke cold.d (calls, atomics, fault ops)
	kExit
	kJa   // unconditional jump to u.tgt
	kJccI // conditional via ebpf.EvalJump against u.imm
	kJccR // conditional via ebpf.EvalJump against reg u.src
	kLddw // 64-bit immediate (map handles pre-folded)
	kAluI // generic ALU via ebpf.EvalALU, imm operand
	kAluR // generic ALU via ebpf.EvalALU, reg operand

	kLdx1
	kLdx2
	kLdx4
	kLdx8
	kStx1 // store register
	kStx2
	kStx4
	kStx8
	kSti1 // store immediate
	kSti2
	kSti4
	kSti8

	// Inlined 64-bit ALU. Immediates are sign-extended; shift amounts
	// pre-masked.
	kMovI
	kMovR
	kAddI
	kAddR
	kSubI
	kSubR
	kAndI
	kAndR
	kOrI
	kOrR
	kXorI
	kXorR
	kLshI
	kLshR
	kRshI
	kRshR

	// The one 32-bit ALU form the corpus executes (kMovI covers mov32 imm
	// with a pre-masked immediate).
	kMov32R

	// Fused superinstructions (see fuse). Operand layout per kind:
	//   kFMovLshRsh  mov dst,src ; lsh64 dst,imm ; rsh64 dst,off
	//   kFMovAddI    mov dst,src ; add64 dst,imm
	//   kFMovSub     mov dst,src ; sub64 dst,reg(tgt)      [tgt != dst]
	//   kFLshRsh     lsh64 dst,imm ; rsh64 dst,off
	//   kFSubMov     sub64 dst,src ; mov tgt>>8,reg(tgt&255)
	//   kFRshMov     rsh64 dst,imm ; mov tgt>>8,reg(tgt&255)
	//   kFMovMov     mov dst,src ; mov tgt>>8,reg(tgt&255)
	//   kFHash7      the 7-op unrolled hash-mix round; see fuse for the
	//                imm nibble/shift packing
	kFMovLshRsh
	kFMovAddI
	kFMovSub
	kFLshRsh
	kFSubMov
	kFRshMov
	kFMovMov
	kFHash7

	// Specialized 64-bit conditional jumps, for the three compares the corpus
	// executes: the compare is inlined in the dispatch case (no call, no
	// cold-table touch on the hot path). Immediate/register variants
	// alternate. Every other compare, and all of JMP32, is kJccI/kJccR.
	kJeqI
	kJeqR
	kJneI
	kJneR
	kJleI
	kJleR
)

// jccKind maps a 64-bit conditional jump op to its specialized
// immediate-variant kind (the register variant is the next kind).
var jccKind = map[ebpf.JumpOp]uint8{
	ebpf.JumpEq: kJeqI,
	ebpf.JumpNE: kJneI,
	ebpf.JumpLE: kJleI,
}

// uop is one pre-decoded instruction element: the 24 hot bytes the dispatch
// loop touches. Cold details live in the parallel coldOp table.
type uop struct {
	exec uint8
	dst  uint8
	src  uint8
	_    uint8
	tgt  int32  // branch target element index (-1: fault when taken); fused second-op regs
	imm  uint64 // immediate / first fused operand
	off  uint64 // load/store displacement / second fused operand
}

// coldOp holds the rarely-touched parts of an element, indexed by the same
// pc as code.
type coldOp struct {
	d    dop           // closure body for kClosure
	fe   *RuntimeError // pre-built fault for bad taken-branch targets
	slot int32         // original slot index; branch-predictor key
	op   uint8         // kAluI/kAluR: ebpf.ALUOp; kJccI/kJccR: ebpf.JumpOp
	is32 bool          // ALU / JMP32 class: the table's 32-bit form
}

// compile translates the loaded program into its pre-decoded form. It never
// rejects programs the reference interpreter accepts — instructions that
// would fault at runtime compile to fault ops producing the identical
// fault — but an error return is kept so New can fall back to the reference
// interpreter if decoding is ever impossible.
func compile(m *Machine) ([]uop, []coldOp, error) {
	insns := m.prog.Insns
	code := make([]uop, len(insns))
	cold := make([]coldOp, len(insns))
	for i := range insns {
		u, co, err := m.compileInsn(i, insns[i])
		if err != nil {
			return nil, nil, fmt.Errorf("insn %d (%s): %w", i, ebpf.Mnemonic(insns[i]), err)
		}
		code[i] = u
		cold[i] = co
	}
	fuse(code)
	return code, cold, nil
}

// fuse replaces the hottest consecutive micro-op sequences with single
// superinstructions. An interior element of a fused group must not be a
// branch target (control may only enter at the head); interior elements
// keep their original uops in place, both as jump targets resolved before
// fusion and as the continuation point when the step limit expires
// mid-group.
func fuse(code []uop) {
	isTarget := make([]bool, len(code))
	for i := range code {
		switch code[i].exec {
		case kJa, kJccI, kJccR:
			if t := code[i].tgt; t >= 0 && int(t) < len(code) {
				isTarget[t] = true
			}
		}
	}
	pack := func(dst, src uint8) int32 { return int32(dst)<<8 | int32(src) }
	for i := 0; i < len(code)-1; i++ {
		if isTarget[i+1] {
			continue
		}
		a, b := code[i], code[i+1]
		// Triple: the field-extract / hash idiom mov;lsh;rsh.
		if i+2 < len(code) && !isTarget[i+2] {
			c := code[i+2]
			if a.exec == kMovR && b.exec == kLshI && c.exec == kRshI &&
				b.dst == a.dst && c.dst == a.dst {
				code[i] = uop{exec: kFMovLshRsh, dst: a.dst, src: a.src, imm: b.imm, off: c.imm}
				i += 2
				continue
			}
		}
		var f uop
		switch {
		case a.exec == kMovR && b.exec == kAddI && b.dst == a.dst:
			f = uop{exec: kFMovAddI, dst: a.dst, src: a.src, imm: b.imm}
		case a.exec == kMovR && b.exec == kSubR && b.dst == a.dst && b.src != a.dst:
			f = uop{exec: kFMovSub, dst: a.dst, src: a.src, tgt: int32(b.src)}
		case a.exec == kLshI && b.exec == kRshI && b.dst == a.dst:
			f = uop{exec: kFLshRsh, dst: a.dst, imm: a.imm, off: b.imm}
		case a.exec == kSubR && b.exec == kMovR:
			f = uop{exec: kFSubMov, dst: a.dst, src: a.src, tgt: pack(b.dst, b.src)}
		case a.exec == kRshI && b.exec == kMovR:
			f = uop{exec: kFRshMov, dst: a.dst, imm: a.imm, tgt: pack(b.dst, b.src)}
		case a.exec == kMovR && b.exec == kMovR:
			f = uop{exec: kFMovMov, dst: a.dst, src: a.src, tgt: pack(b.dst, b.src)}
		default:
			continue
		}
		code[i] = f
		i++ // consumed second op keeps its slot but is skipped over
	}
	// Second tier: collapse the unrolled hash-mix round — by far the
	// hottest straight-line block in the corpus — into one dispatch. After
	// pair fusion it appears as kMovR, kXorR, kFMovSub, kFMovLshRsh over 7
	// slots (widths 1,1,2,3). All nine register numbers and both shift
	// amounts fit in imm: nibbles d2 s2 d3 s3 t3 d4 s4 at bits 0..27, the
	// lsh amount at 28..33 and the rsh amount at 34..39. Interior slots
	// keep their previous forms, so mid-group entry and the step-limit
	// fallback replay exact per-op semantics.
	for i := 0; i+6 < len(code); i++ {
		a, b, c, d := code[i], code[i+1], code[i+2], code[i+4]
		if a.exec != kMovR || b.exec != kXorR || c.exec != kFMovSub || d.exec != kFMovLshRsh {
			continue
		}
		w := uint64(b.dst) | uint64(b.src)<<4 |
			uint64(c.dst)<<8 | uint64(c.src)<<12 | uint64(c.tgt&15)<<16 |
			uint64(d.dst)<<20 | uint64(d.src)<<24 |
			d.imm<<28 | d.off<<34
		code[i] = uop{exec: kFHash7, dst: a.dst, src: a.src, imm: w}
		i += 6
	}
}

// runFast executes the pre-decoded stream into st. The step-limit and
// pc-bounds checks mirror the reference loop exactly (same fault pc and
// detail, including pc==len on fall-through past the last instruction).
func (m *Machine) runFast(ctx, pkt []byte, st *Stats) (int64, error) {
	fr := &m.fr
	fr.regs = [regSlots]uint64{}
	*st = Stats{}
	fr.stp = st
	fr.ctx, fr.pkt = ctx, pkt
	fr.regs[1] = ctxBase
	fr.regs[10] = stackBase
	m.ktime += 1000

	code := m.code
	cold := m.cold
	regs := &fr.regs
	pred := m.Pred
	cache := m.Cache
	c := &m.cfg.Costs
	aluC, wideC, ldC, stC, brC, brMissC, missC := c.ALU, c.WideImm, c.Load, c.Store, c.Branch, c.BranchMiss, c.CacheMiss
	limit := m.cfg.StepLimit

	// Hot counters stay in registers and are flushed into st only at exit
	// points. memAccess and dop closures add to st directly while amounts
	// are still pending here; accumulation commutes, and nothing observes
	// st before a flush runs.
	var instrs, cycles, branches, misses, crefs, cmisses uint64
	var taken bool

	pc := 0
	for step := 0; ; step++ {
		if step >= limit {
			st.Instructions += instrs
			st.Cycles += cycles
			st.Branches += branches
			st.BranchMisses += misses
			st.CacheRefs += crefs
			st.CacheMisses += cmisses
			return 0, faultf(FaultStepLimit, pc, "step limit %d exceeded", limit)
		}
		if uint(pc) >= uint(len(code)) {
			st.Instructions += instrs
			st.Cycles += cycles
			st.Branches += branches
			st.BranchMisses += misses
			st.CacheRefs += crefs
			st.CacheMisses += cmisses
			return 0, faultf(FaultBadPC, -1, "pc %d out of range", pc)
		}
		u := &code[pc]
		switch u.exec {
		case kMovI:
			instrs++
			cycles += aluC
			regs[u.dst] = u.imm
			pc++
		case kMovR:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src]
			pc++
		case kAddI:
			instrs++
			cycles += aluC
			regs[u.dst] += u.imm
			pc++
		case kAddR:
			instrs++
			cycles += aluC
			regs[u.dst] += regs[u.src]
			pc++
		case kSubI:
			instrs++
			cycles += aluC
			regs[u.dst] -= u.imm
			pc++
		case kSubR:
			instrs++
			cycles += aluC
			regs[u.dst] -= regs[u.src]
			pc++
		case kAndI:
			instrs++
			cycles += aluC
			regs[u.dst] &= u.imm
			pc++
		case kAndR:
			instrs++
			cycles += aluC
			regs[u.dst] &= regs[u.src]
			pc++
		case kOrI:
			instrs++
			cycles += aluC
			regs[u.dst] |= u.imm
			pc++
		case kOrR:
			instrs++
			cycles += aluC
			regs[u.dst] |= regs[u.src]
			pc++
		case kXorI:
			instrs++
			cycles += aluC
			regs[u.dst] ^= u.imm
			pc++
		case kXorR:
			instrs++
			cycles += aluC
			regs[u.dst] ^= regs[u.src]
			pc++
		case kLshI:
			instrs++
			cycles += aluC
			regs[u.dst] <<= u.imm // pre-masked
			pc++
		case kLshR:
			instrs++
			cycles += aluC
			regs[u.dst] <<= regs[u.src] & 63
			pc++
		case kRshI:
			instrs++
			cycles += aluC
			regs[u.dst] >>= u.imm
			pc++
		case kRshR:
			instrs++
			cycles += aluC
			regs[u.dst] >>= regs[u.src] & 63
			pc++

		case kMov32R:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src] & 0xffffffff
			pc++

		case kFMovLshRsh:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src]
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[u.dst] <<= u.imm
			if step+1 >= limit {
				pc += 2
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[u.dst] >>= u.off
			pc += 3
		case kFMovAddI:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src]
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[u.dst] += u.imm
			pc += 2
		case kFMovSub:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src]
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[u.dst] -= regs[u.tgt]
			pc += 2
		case kFLshRsh:
			instrs++
			cycles += aluC
			regs[u.dst] <<= u.imm
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[u.dst] >>= u.off
			pc += 2
		case kFSubMov:
			instrs++
			cycles += aluC
			regs[u.dst] -= regs[u.src]
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[uint8(u.tgt>>8)] = regs[uint8(u.tgt)]
			pc += 2
		case kFRshMov:
			instrs++
			cycles += aluC
			regs[u.dst] >>= u.imm
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[uint8(u.tgt>>8)] = regs[uint8(u.tgt)]
			pc += 2
		case kFMovMov:
			instrs++
			cycles += aluC
			regs[u.dst] = regs[u.src]
			if step+1 >= limit {
				pc++
				continue
			}
			step++
			instrs++
			cycles += aluC
			regs[uint8(u.tgt>>8)] = regs[uint8(u.tgt)]
			pc += 2
		case kFHash7:
			if step+7 > limit {
				// Can't complete the group before the limit: execute
				// the head element only and fall through to the
				// retained interior ops, which re-check per op.
				instrs++
				cycles += aluC
				regs[u.dst] = regs[u.src]
				pc++
				continue
			}
			w := u.imm
			regs[u.dst] = regs[u.src]
			regs[w&15] ^= regs[w>>4&15]
			regs[w>>8&15] = regs[w>>12&15]
			regs[w>>8&15] -= regs[w>>16&15]
			regs[w>>20&15] = regs[w>>24&15] << (w >> 28 & 63) >> (w >> 34 & 63)
			instrs += 7
			cycles += 7 * aluC
			step += 6
			pc += 7

		case kAluI, kAluR:
			instrs++
			cycles += aluC
			b := u.imm
			if u.exec == kAluR {
				b = regs[u.src]
			}
			// compileALU admits only ops the table defines.
			regs[u.dst], _ = ebpf.EvalALU(ebpf.ALUOp(cold[pc].op), cold[pc].is32, regs[u.dst], b)
			pc++

		case kLddw:
			instrs += 2
			cycles += wideC
			regs[u.dst] = u.imm
			pc++

		case kLdx1, kLdx2, kLdx4, kLdx8:
			instrs++
			cycles += ldC
			size := 1 << (u.exec - kLdx1)
			addr := regs[u.src] + u.off
			// Inline the hot regions (stack first: any wrapped range
			// matches it in both engines); cold regions and faults take
			// the generic fallback.
			var buf []byte
			var o int
			var err error
			end := addr + uint64(size)
			switch {
			case addr >= stackBase-StackSize && end <= stackBase:
				buf, o = m.stack[:], int(addr-(stackBase-StackSize))
			case addr >= pktBase && end <= pktBase+uint64(len(pkt)):
				buf, o = pkt, int(addr-pktBase)
			case addr >= ctxBase && end <= ctxBase+uint64(len(ctx)):
				buf, o = ctx, int(addr-ctxBase)
			default:
				buf, o, err = m.region(addr, size, ctx, pkt)
			}
			if err == nil {
				crefs++
				if cache != nil {
					if !cache.Access(addr) {
						cmisses++
						cycles += missC
					}
				}
			} else {
				st.Instructions += instrs
				st.Cycles += cycles
				st.Branches += branches
				st.BranchMisses += misses
				st.CacheRefs += crefs
				st.CacheMisses += cmisses
				return 0, m.memFault(err, pc)
			}
			switch u.exec {
			case kLdx1:
				regs[u.dst] = uint64(buf[o])
			case kLdx2:
				regs[u.dst] = uint64(binary.LittleEndian.Uint16(buf[o:]))
			case kLdx4:
				regs[u.dst] = uint64(binary.LittleEndian.Uint32(buf[o:]))
			default:
				regs[u.dst] = binary.LittleEndian.Uint64(buf[o:])
			}
			pc++

		case kStx1, kStx2, kStx4, kStx8, kSti1, kSti2, kSti4, kSti8:
			instrs++
			cycles += stC
			k := u.exec
			v := u.imm
			if k <= kStx8 {
				v = regs[u.src]
			} else {
				k -= kSti1 - kStx1
			}
			size := 1 << (k - kStx1)
			addr := regs[u.dst] + u.off
			var buf []byte
			var o int
			var err error
			end := addr + uint64(size)
			switch {
			case addr >= stackBase-StackSize && end <= stackBase:
				buf, o = m.stack[:], int(addr-(stackBase-StackSize))
			case addr >= pktBase && end <= pktBase+uint64(len(pkt)):
				buf, o = pkt, int(addr-pktBase)
			case addr >= ctxBase && end <= ctxBase+uint64(len(ctx)):
				buf, o = ctx, int(addr-ctxBase)
			default:
				buf, o, err = m.region(addr, size, ctx, pkt)
			}
			if err == nil {
				crefs++
				if cache != nil {
					if !cache.Access(addr) {
						cmisses++
						cycles += missC
					}
				}
			} else {
				st.Instructions += instrs
				st.Cycles += cycles
				st.Branches += branches
				st.BranchMisses += misses
				st.CacheRefs += crefs
				st.CacheMisses += cmisses
				return 0, m.memFault(err, pc)
			}
			switch k {
			case kStx1:
				buf[o] = byte(v)
			case kStx2:
				binary.LittleEndian.PutUint16(buf[o:], uint16(v))
			case kStx4:
				binary.LittleEndian.PutUint32(buf[o:], uint32(v))
			default:
				binary.LittleEndian.PutUint64(buf[o:], v)
			}
			pc++

		case kJa:
			instrs++
			cycles += brC
			pc = int(u.tgt)

		case kJeqI:
			taken = regs[u.dst] == u.imm
			goto brTail
		case kJeqR:
			taken = regs[u.dst] == regs[u.src]
			goto brTail
		case kJneI:
			taken = regs[u.dst] != u.imm
			goto brTail
		case kJneR:
			taken = regs[u.dst] != regs[u.src]
			goto brTail
		case kJleI:
			taken = regs[u.dst] <= u.imm
			goto brTail
		case kJleR:
			taken = regs[u.dst] <= regs[u.src]
			goto brTail

		case kJccI, kJccR:
			b := u.imm
			if u.exec == kJccR {
				b = regs[u.src]
			}
			// An undefined compare op is never taken, as in runRef.
			taken, _ = ebpf.EvalJump(ebpf.JumpOp(cold[pc].op), cold[pc].is32, regs[u.dst], b)
			goto brTail

		case kExit:
			instrs++
			cycles += brC
			st.Instructions += instrs
			st.Cycles += cycles
			st.Branches += branches
			st.BranchMisses += misses
			st.CacheRefs += crefs
			st.CacheMisses += cmisses
			m.Total.Add(*st)
			return int64(regs[0]), nil

		default: // kClosure
			pc = cold[pc].d(m, fr)
			if pc < 0 {
				st.Instructions += instrs
				st.Cycles += cycles
				st.Branches += branches
				st.BranchMisses += misses
				st.CacheRefs += crefs
				st.CacheMisses += cmisses
				if pc == opExit {
					m.Total.Add(*st)
					return fr.rv, nil
				}
				return 0, fr.err
			}
		}
		continue

		// Shared conditional-branch tail: every jcc kind computes taken
		// and lands here for accounting, prediction and target selection.
	brTail:
		instrs++
		branches++
		cycles += brC
		if pred != nil {
			if !pred.Predict(int(cold[pc].slot), taken) {
				misses++
				cycles += brMissC
			}
		}
		if !taken {
			pc++
		} else if u.tgt >= 0 {
			pc = int(u.tgt)
		} else {
			st.Instructions += instrs
			st.Cycles += cycles
			st.Branches += branches
			st.BranchMisses += misses
			st.CacheRefs += crefs
			st.CacheMisses += cmisses
			return 0, cold[pc].fe
		}
	}
}

// memAccess resolves a load/store address and charges the cache model,
// identically to the reference interpreter's per-run closure. The hot
// regions (stack first — any wrapped range matches it in both engines —
// then packet, context and map values) resolve inline; kernel memory and
// faulting addresses take the generic region fallback.
func (m *Machine) memAccess(fr *frame, addr uint64, size int) ([]byte, int, error) {
	var buf []byte
	var off int
	end := addr + uint64(size)
	switch {
	case addr >= stackBase-StackSize && end <= stackBase:
		buf, off = m.stack[:], int(addr-(stackBase-StackSize))
	case addr >= pktBase && end <= pktBase+uint64(len(fr.pkt)):
		buf, off = fr.pkt, int(addr-pktBase)
	case addr >= ctxBase && end <= ctxBase+uint64(len(fr.ctx)):
		buf, off = fr.ctx, int(addr-ctxBase)
	default:
		var err error
		buf, off, err = m.region(addr, size, fr.ctx, fr.pkt)
		if err != nil {
			return nil, 0, err
		}
	}
	fr.stp.CacheRefs++
	if m.Cache != nil {
		if !m.Cache.Access(addr) {
			fr.stp.CacheMisses++
			fr.stp.Cycles += m.cfg.Costs.CacheMiss
		}
	}
	return buf, off, nil
}

// faultDop builds a closure for an instruction that always faults, charging
// the given instruction slots and cycles first (mirroring how far the
// reference interpreter accounts before rejecting).
func faultDop(slots, cost uint64, e *RuntimeError) dop {
	return func(m *Machine, fr *frame) int {
		fr.stp.Instructions += slots
		fr.stp.Cycles += cost
		fr.err = e
		return opFault
	}
}

// memFault attributes a failed memory access to the instruction at pc. The
// mnemonic that prefixes the detail is rendered here, when a fault is
// reported, not stored per load/store at decode. Kept out of line so the
// dispatch loop carries only a call on its fault branches: with the render
// inlined there, per-packet Run measured 3-4 % slower (serve-mirror).
//
//go:noinline
func (m *Machine) memFault(err error, pc int) *RuntimeError {
	return wrapFault(err, FaultBadMemory, pc, ebpf.Mnemonic(m.prog.Insns[pc]))
}

func closureOp(d dop) (uop, coldOp) { return uop{exec: kClosure}, coldOp{d: d} }

func (m *Machine) compileInsn(pc int, ins ebpf.Instruction) (uop, coldOp, error) {
	c := m.cfg.Costs
	slots := uint64(ins.Slots())

	switch ins.Class() {
	case ebpf.ClassALU64:
		u, co := compileALU(ins, false, pc, c.ALU)
		return u, co, nil
	case ebpf.ClassALU:
		u, co := compileALU(ins, true, pc, c.ALU)
		return u, co, nil

	case ebpf.ClassLD:
		if !ins.IsWide() {
			u, co := closureOp(faultDop(slots, 0, faultf(FaultBadInstruction, pc, "unsupported legacy ld")))
			return u, co, nil
		}
		val := uint64(ins.Imm64)
		if ins.IsMapLoad() {
			// Pre-bind the map slot: the runtime handle is a compile-time
			// constant.
			val = mapHandle + uint64(ins.Imm64)
		}
		return uop{exec: kLddw, dst: uint8(ins.Dst), imm: val}, coldOp{}, nil

	case ebpf.ClassLDX:
		u := uop{
			dst: uint8(ins.Dst), src: uint8(ins.Src),
			off: uint64(int64(ins.Offset)),
		}
		switch ins.SizeField().Bytes() {
		case 1:
			u.exec = kLdx1
		case 2:
			u.exec = kLdx2
		case 4:
			u.exec = kLdx4
		default:
			u.exec = kLdx8
		}
		return u, coldOp{}, nil

	case ebpf.ClassST, ebpf.ClassSTX:
		if ins.IsAtomic() {
			u, co := closureOp(compileAtomic(&c, ins, pc))
			return u, co, nil
		}
		u := uop{
			dst: uint8(ins.Dst), src: uint8(ins.Src),
			off: uint64(int64(ins.Offset)),
		}
		base := kStx1
		if ins.Class() == ebpf.ClassST {
			base = kSti1
			u.imm = uint64(int64(ins.Imm))
		}
		switch ins.SizeField().Bytes() {
		case 1:
			u.exec = base
		case 2:
			u.exec = base + 1
		case 4:
			u.exec = base + 2
		default:
			u.exec = base + 3
		}
		return u, coldOp{}, nil

	case ebpf.ClassJMP, ebpf.ClassJMP32:
		u, co := m.compileJump(&c, ins, pc)
		return u, co, nil

	default:
		e := faultf(FaultBadInstruction, pc, "unsupported class %s", ins.Class())
		u, co := closureOp(faultDop(slots, 0, e))
		return u, co, nil
	}
}

// aluForm is an ALU operation at one width; aluKinds names the inline
// micro-ops of one: immediate and register form.
type (
	aluForm struct {
		op   ebpf.ALUOp
		is32 bool
	}
	aluKinds struct{ imm, reg uint8 }
)

// inlineALU lists the ALU operations with inline micro-ops: the ones some
// corpus program executes (TestSpecialisedKindsOccurInCorpus). Every other
// operation is the table through the generic kAluI/kAluR.
var inlineALU = map[aluForm]aluKinds{
	{ebpf.ALUAdd, false}: {kAddI, kAddR},
	{ebpf.ALUSub, false}: {kSubI, kSubR},
	{ebpf.ALUAnd, false}: {kAndI, kAndR},
	{ebpf.ALUOr, false}:  {kOrI, kOrR},
	{ebpf.ALUXor, false}: {kXorI, kXorR},
	{ebpf.ALULsh, false}: {kLshI, kLshR},
	{ebpf.ALURsh, false}: {kRshI, kRshR},
	{ebpf.ALUMov, false}: {kMovI, kMovR},
	// mov32 imm zero-extends a pre-masked immediate: plain kMovI.
	{ebpf.ALUMov, true}: {kMovI, kMov32R},
}

// compileALU maps an ALU instruction to an inline micro-op where one exists
// and to the generic kAluI/kAluR otherwise.
func compileALU(ins ebpf.Instruction, is32 bool, pc int, aluCost uint64) (uop, coldOp) {
	op := ins.ALUOpField()
	u := uop{dst: uint8(ins.Dst), src: uint8(ins.Src), imm: uint64(int64(ins.Imm))}
	isReg := ins.SourceField() == ebpf.SourceX && op != ebpf.ALUEnd // end reads its width from imm

	if p, ok := inlineALU[aluForm{op, is32}]; ok {
		u.exec = p.imm
		if isReg {
			u.exec = p.reg
		}
		// Immediates are masked at decode, not per execution.
		switch {
		case op == ebpf.ALULsh || op == ebpf.ALURsh:
			u.imm &= 63
		case is32:
			u.imm &= 0xffffffff
		}
		return u, coldOp{}
	}
	if _, ok := ebpf.EvalALU(op, is32, 0, 0); !ok {
		// Undefined op: fault after charging the ALU cycle, exactly like the
		// reference.
		e := faultf(FaultBadInstruction, pc, "unsupported alu op %#x", ins.Opcode)
		return closureOp(faultDop(uint64(ins.Slots()), aluCost, e))
	}
	u.exec = kAluI
	if isReg {
		u.exec = kAluR
	}
	return u, coldOp{op: uint8(op), is32: is32}
}

func compileAtomic(c *CostModel, ins ebpf.Instruction, pc int) dop {
	slots := uint64(ins.Slots())
	cost := c.Atomic
	dst, src := ins.Dst, ins.Src
	off := uint64(int64(ins.Offset))
	size := ins.SizeField().Bytes()
	op := ebpf.AtomicOp(ins.Imm)
	next := pc + 1
	return func(m *Machine, fr *frame) int {
		fr.stp.Instructions += slots
		fr.stp.Cycles += cost
		buf, o, err := m.memAccess(fr, fr.regs[dst]+off, size)
		if err != nil {
			fr.err = m.memFault(err, pc)
			return opFault
		}
		nv, ok := ebpf.EvalAtomic(op, loadBytes(buf[o:], size), fr.regs[src])
		if !ok {
			// Like the reference interpreter, an unknown atomic op is
			// rejected only after its memory access resolved and was charged.
			fr.err = faultf(FaultBadInstruction, pc, "unknown atomic op %#x", int32(op))
			return opFault
		}
		storeBytes(buf[o:], size, nv)
		return next
	}
}

func (m *Machine) compileJump(c *CostModel, ins ebpf.Instruction, pc int) (uop, coldOp) {
	slots := uint64(ins.Slots())

	switch ins.JumpOpField() {
	case ebpf.JumpExit:
		return uop{exec: kExit}, coldOp{}

	case ebpf.JumpCall:
		return closureOp(compileCall(c, ins, pc))

	case ebpf.JumpAlways:
		tgt, ok := m.lay.ElemAt(m.lay.JumpSlot(pc, ins))
		if !ok {
			e := faultf(FaultBadPC, pc, "bad jump target")
			return closureOp(faultDop(slots, c.Branch, e))
		}
		return uop{exec: kJa, tgt: int32(tgt)}, coldOp{}
	}

	// Conditional branch: operands, comparison and the taken-side target are
	// all resolved now; a missing target faults only when the branch is
	// taken, as in the reference interpreter.
	slot := m.lay.SlotOf[pc]
	u := uop{
		dst: uint8(ins.Dst),
		src: uint8(ins.Src),
		imm: uint64(int64(ins.Imm)),
		tgt: -1,
	}
	co := coldOp{
		slot: int32(slot),
		op:   uint8(ins.JumpOpField()),
		is32: ins.Class() == ebpf.ClassJMP32,
	}
	if tgt, ok := m.lay.ElemAt(m.lay.JumpSlot(pc, ins)); ok {
		u.tgt = int32(tgt)
	} else {
		co.fe = faultf(FaultBadPC, pc, "bad branch target")
	}
	isReg := ins.SourceField() == ebpf.SourceX
	if k, ok := jccKind[ins.JumpOpField()]; ok && ins.Class() == ebpf.ClassJMP {
		u.exec = k
		if isReg {
			u.exec++
		}
		return u, co
	}
	if isReg {
		u.exec = kJccR
	} else {
		u.exec = kJccI
	}
	return u, co
}

// compileCall pre-binds the helper thunk: spec lookup, cycle cost and body
// are resolved at load time. Unknown or unimplemented helpers compile to
// closures producing the reference interpreter's fault (with its exact
// cost accounting: the spec cost is charged only once the helper is known).
func compileCall(c *CostModel, ins ebpf.Instruction, pc int) dop {
	slots := uint64(ins.Slots())
	callCost := c.CallBase
	next := pc + 1
	id := int(ins.Imm)

	spec, ok := helpers.Table[id]
	if !ok {
		e := &RuntimeError{Kind: FaultHelper, PC: pc, Detail: fmt.Sprintf("unknown helper %d", id)}
		return func(m *Machine, fr *frame) int {
			fr.stp.Instructions += slots
			fr.stp.Cycles += callCost
			fr.stp.HelperCalls++
			fr.err = e
			return opFault
		}
	}
	helperCost := spec.Cost
	body, ok := helperBodies[id]
	if !ok {
		e := &RuntimeError{Kind: FaultHelper, PC: pc, Detail: fmt.Sprintf("helper %s not implemented", spec.Name)}
		return func(m *Machine, fr *frame) int {
			fr.stp.Instructions += slots
			fr.stp.Cycles += callCost
			fr.stp.HelperCalls++
			fr.stp.Cycles += helperCost
			fr.err = e
			return opFault
		}
	}
	return func(m *Machine, fr *frame) int {
		fr.stp.Instructions += slots
		fr.stp.Cycles += callCost
		fr.stp.HelperCalls++
		fr.stp.Cycles += helperCost
		if err := body(m, &fr.regs, fr.ctx, fr.pkt); err != nil {
			fr.err = wrapFault(err, FaultHelper, pc, "")
			return opFault
		}
		return next
	}
}
