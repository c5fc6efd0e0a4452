package k2

import (
	"bytes"
	"math/rand"

	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// oracle holds the differential-testing corpus and evaluates candidate
// programs for equivalence and cost.
type oracle struct {
	ref     *ebpf.Program
	packets [][]byte
	want    []outcome
}

type outcome struct {
	ret  int64
	maps []byte // concatenated map backings after the run
	pkt  []byte // final packet contents (XDP programs rewrite packets)
	err  bool
}

func newOracle(prog *ebpf.Program, n int, rng *rand.Rand) (*oracle, error) {
	o := &oracle{ref: prog}
	for i := 0; i < n; i++ {
		ln := 64 + rng.Intn(64)
		if i%5 == 4 {
			ln = 14 + rng.Intn(24) // short frames exercise bounds failures
		}
		pkt := make([]byte, ln)
		rng.Read(pkt)
		// Bias well-formed headers so parsers take their match arms: most
		// packets are IPv4 with TCP or UDP payloads.
		if i%4 != 3 && ln >= 34 {
			pkt[12], pkt[13] = 0x08, 0x00
			pkt[14] = 0x45
			if i%2 == 0 {
				pkt[14+9] = 6 // TCP
			} else {
				pkt[14+9] = 17 // UDP
			}
		}
		o.packets = append(o.packets, pkt)
	}
	// Also the degenerate tiny packet.
	o.packets = append(o.packets, make([]byte, 1))
	for _, pkt := range o.packets {
		o.want = append(o.want, runOutcome(prog, pkt))
	}
	return o, nil
}

// populateMaps fills the machine's maps with deterministic contents so
// lookup-dependent program paths execute under the test oracle. Real K2
// feeds the solver symbolic map state; without population, code guarded by
// map hits would look dead and get "optimized" away unsoundly. Array maps
// are filled wholesale; hash maps get keys derived from the test packets at
// the header offsets parsers read (addresses, 5-tuples, connection IDs).
func populateMaps(m *vm.Machine, prog *ebpf.Program, packets [][]byte) {
	for mi, spec := range prog.Maps {
		mp := m.Map(mi)
		val := make([]byte, spec.ValueSize)
		for i := range val {
			// Values vary with the test input so a candidate cannot pass by
			// constant-folding through map contents (real K2 treats map
			// state symbolically).
			val[i] = byte(mi*37 + i + 1)
			for _, pkt := range packets {
				if len(pkt) > 0 {
					val[i] ^= pkt[(i*13+7)%len(pkt)]
				}
			}
		}
		switch spec.Kind {
		case 0, 2: // array, per-CPU array
			key := make([]byte, 4)
			for idx := 0; idx < spec.MaxEntries; idx++ {
				key[0], key[1], key[2], key[3] = byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24)
				_ = mp.Update(key, val, 0)
			}
		case 1: // hash: derive plausible keys from packet headers
			// Alternate two value patterns so verdict-style fields (action
			// flags in byte 0) take both arms under the oracle.
			val2 := append([]byte(nil), val...)
			val2[0] = 1
			flip := false
			insert := func(key []byte) {
				if len(key) != spec.KeySize {
					return
				}
				v := val
				if flip {
					v = val2
				}
				flip = !flip
				_ = mp.Update(key, v, 0)
			}
			for _, pkt := range packets {
				if len(pkt) < 42 {
					continue
				}
				switch spec.KeySize {
				case 4:
					insert(append([]byte(nil), pkt[14+12:14+16]...)) // saddr
					insert(append([]byte(nil), pkt[14+16:14+20]...)) // daddr
				case 8:
					insert(append([]byte(nil), pkt[14+12:14+20]...)) // sa||da
					// da||sa (programs often build (sa<<32)|da, whose LE
					// byte order is da first).
					rev := make([]byte, 8)
					copy(rev[0:4], pkt[14+16:14+20])
					copy(rev[4:8], pkt[14+12:14+16])
					insert(rev)
					if len(pkt) >= 14+20+8+9 {
						insert(append([]byte(nil), pkt[14+20+8+1:14+20+8+9]...)) // QUIC CID
					}
					// Route-table style keys: (prefix_len << 32) | masked_daddr.
					da := uint32(pkt[14+16]) | uint32(pkt[14+17])<<8 | uint32(pkt[14+18])<<16 | uint32(pkt[14+19])<<24
					for _, plen := range []uint32{32, 24, 16, 8} {
						masked := da & (uint32(0xffffffff) >> (32 - plen)) // low plen bits
						key := make([]byte, 8)
						key[0], key[1], key[2], key[3] = byte(masked), byte(masked>>8), byte(masked>>16), byte(masked>>24)
						key[4] = byte(plen)
						insert(key)
					}
				case 16:
					// parseFiveTuple layout: sa, da, sp, dp, proto, pad.
					key := make([]byte, 16)
					copy(key[0:4], pkt[14+12:14+16])
					copy(key[4:8], pkt[14+16:14+20])
					copy(key[8:10], pkt[14+20:14+22])
					copy(key[10:12], pkt[14+22:14+24])
					key[12] = pkt[14+9]
					insert(key)
				}
			}
		}
	}
}

func runOutcome(prog *ebpf.Program, pkt []byte) outcome {
	m, err := vm.New(prog, vm.Config{Seed: 7})
	if err != nil {
		return outcome{err: true}
	}
	populateMaps(m, prog, [][]byte{pkt})
	buf := append([]byte(nil), pkt...) // programs may rewrite the packet
	ctx := vm.BuildXDPContext(len(buf))
	ret, _, err := m.Run(ctx, buf)
	if err != nil {
		return outcome{err: true}
	}
	var maps []byte
	for i := 0; i < len(prog.Maps); i++ {
		maps = append(maps, m.Map(i).Backing()...)
	}
	return outcome{ret: ret, maps: maps, pkt: buf}
}

// equivalent checks the candidate against the recorded outcomes.
func (o *oracle) equivalent(cand *ebpf.Program) bool {
	for i, pkt := range o.packets {
		got := runOutcome(cand, pkt)
		want := o.want[i]
		if got.err != want.err || got.ret != want.ret ||
			!bytes.Equal(got.maps, want.maps) || !bytes.Equal(got.pkt, want.pkt) {
			return false
		}
	}
	return true
}

// cost scores a program: size plus measured cycles over the corpus — the
// same composite objective K2 optimizes.
func (o *oracle) cost(p *ebpf.Program) int {
	cycles := uint64(0)
	m, err := vm.New(p, vm.Config{Seed: 7})
	if err != nil {
		return 1 << 30
	}
	populateMaps(m, p, o.packets)
	for _, pkt := range o.packets {
		// Run on a copy: programs rewrite packets, and the oracle's inputs
		// must stay pristine.
		buf := append([]byte(nil), pkt...)
		ctx := vm.BuildXDPContext(len(buf))
		_, st, err := m.Run(ctx, buf)
		if err != nil {
			return 1 << 30
		}
		cycles += st.Cycles
	}
	return p.NI()*100 + int(cycles)
}

// mutate proposes one random rewrite of the program. It returns false when
// the proposal is structurally impossible.
func mutate(p *ebpf.Program, rng *rand.Rand) (*ebpf.Program, bool) {
	ed, err := ebpf.MakeEditable(p)
	if err != nil {
		return nil, false
	}
	n := len(ed.Insns)
	if n <= 1 {
		return nil, false
	}
	switch rng.Intn(4) {
	case 0: // delete a random non-branch, non-exit instruction
		i := rng.Intn(n)
		ins := ed.Insns[i]
		if ins.IsExit() || ins.IsCondJump() || ins.IsUncondJump() || ins.IsCall() {
			return nil, false
		}
		dead := make([]bool, n)
		dead[i] = true
		ed.Sweep(dead)
	case 1: // replace an ALU op with a random cheaper/equal form
		i := rng.Intn(n)
		ins := ed.Insns[i]
		if !ins.Class().IsALU() {
			return nil, false
		}
		repl := randomALU(ins, rng)
		ed.Replace(i, repl)
	case 2: // rewrite a register-store into a store-immediate guess
		i := rng.Intn(n)
		ins := ed.Insns[i]
		if ins.Class() != ebpf.ClassSTX || ins.ModeField() != ebpf.ModeMEM {
			return nil, false
		}
		ed.Replace(i, ebpf.StoreImm(ins.SizeField(), ins.Dst, ins.Offset, int32(rng.Intn(3))))
	case 3: // swap two adjacent non-control instructions
		if n < 2 {
			return nil, false
		}
		i := rng.Intn(n - 1)
		a, b := ed.Insns[i], ed.Insns[i+1]
		if a.IsCondJump() || a.IsUncondJump() || a.IsExit() || a.IsCall() ||
			b.IsCondJump() || b.IsUncondJump() || b.IsExit() || b.IsCall() {
			return nil, false
		}
		ed.Insns[i], ed.Insns[i+1] = b, a
	}
	out, err := ed.Finalize()
	if err != nil {
		return nil, false
	}
	return out, true
}

// randomALU perturbs an ALU instruction into a nearby form.
func randomALU(ins ebpf.Instruction, rng *rand.Rand) ebpf.Instruction {
	out := ins
	switch rng.Intn(3) {
	case 0: // tweak the immediate
		if ins.SourceField() == ebpf.SourceK {
			out.Imm = ins.Imm + int32(rng.Intn(3)-1)
		}
	case 1: // change the operation
		ops := []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUOr, ebpf.ALUAnd, ebpf.ALUXor, ebpf.ALUMov}
		op := ops[rng.Intn(len(ops))]
		out.Opcode = uint8(ebpf.ClassALU64) | uint8(ins.SourceField()) | uint8(op)
	case 2: // flip imm/reg form keeping dst
		if ins.SourceField() == ebpf.SourceK {
			out.Opcode = ins.Opcode | uint8(ebpf.SourceX)
			out.Src = ebpf.Register(rng.Intn(10))
			out.Imm = 0
		}
	}
	return out
}
