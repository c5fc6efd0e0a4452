package superopt

import (
	"math/rand"

	"merlin/internal/analysis"
	"merlin/internal/ebpf"
)

// columns holds one column per register: element v of a column is that
// register's value on test vector v.
type columns [ebpf.NumRegisters][]uint64

// evalColumn computes ins over vectors [lo,hi): out[v] from dst column a and
// source column src, or ins's sign-extended immediate when src is nil. The
// step is ebpf.EvalALU itself — the semantics the vm re-proves survivors on —
// and extraction admits only ops it defines, so its ok result is dropped.
func evalColumn(ins *ebpf.Instruction, a, src, out []uint64, lo, hi int) {
	op, is32 := ins.ALUOpField(), ins.Class() == ebpf.ClassALU
	if src == nil {
		imm := uint64(int64(ins.Imm))
		for v := lo; v < hi; v++ {
			out[v], _ = ebpf.EvalALU(op, is32, a[v], imm)
		}
		return
	}
	for v := lo; v < hi; v++ {
		out[v], _ = ebpf.EvalALU(op, is32, a[v], src[v])
	}
}

// columnIs reports whether evalColumn's result over [lo,hi) would equal
// want, without storing it and stopping at the first difference.
func columnIs(ins *ebpf.Instruction, a, src, want []uint64, lo, hi int) bool {
	op, is32 := ins.ALUOpField(), ins.Class() == ebpf.ClassALU
	if src == nil {
		imm := uint64(int64(ins.Imm))
		for v := lo; v < hi; v++ {
			if r, _ := ebpf.EvalALU(op, is32, a[v], imm); r != want[v] {
				return false
			}
		}
		return true
	}
	for v := lo; v < hi; v++ {
		if r, _ := ebpf.EvalALU(op, is32, a[v], src[v]); r != want[v] {
			return false
		}
	}
	return true
}

// lattice is the exhaustive small-input set: boundary values of every
// operand width plus small naturals, chosen to separate sign extension,
// truncation, shift-count masking and carry behavior.
var lattice = []uint64{
	0, 1, 2, 3, 7, 8, 31, 32, 63, 64,
	0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff,
	0x7fffffff, 0x80000000, 0xffffffff, 0x100000000,
	0x7fffffffffffffff, 0x8000000000000000, 0xffffffffffffffff,
}

// regList expands a mask into ascending register order.
func regList(m analysis.RegMask) []ebpf.Register {
	var rs []ebpf.Register
	for r := ebpf.Register(0); r < ebpf.NumRegisters; r++ {
		if m.Has(r) {
			rs = append(rs, r)
		}
	}
	return rs
}

// randomVecs is how many seeded random vectors close the filter set, and how
// many more (from a second stream) the proof set adds.
const randomVecs = 32

// buildVectors produces the live-in test vectors for a window with n live-in
// registers: the full lattice cross-product when n <= 2 (the common case),
// lattice rotations otherwise, plus seeded random vectors mixing full-range,
// narrow and single-bit patterns.
func buildVectors(n int, seed int64) [][]uint64 {
	if n == 0 {
		return [][]uint64{{}}
	}
	var vecs [][]uint64
	switch n {
	case 1:
		for _, v := range lattice {
			vecs = append(vecs, []uint64{v})
		}
	case 2:
		for _, a := range lattice {
			for _, b := range lattice {
				vecs = append(vecs, []uint64{a, b})
			}
		}
	default:
		for j := range lattice {
			vec := make([]uint64, n)
			for i := range vec {
				vec[i] = lattice[(i+j)%len(lattice)]
			}
			vecs = append(vecs, vec)
		}
	}
	return append(vecs, randomVectors(n, seed, randomVecs)...)
}

// randomVectors returns count seeded vectors of n values each.
func randomVectors(n int, seed int64, count int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]uint64, count)
	for i := range vecs {
		vec := make([]uint64, n)
		for k := range vec {
			v := rng.Uint64()
			switch rng.Intn(4) {
			case 0: // full range
			case 1:
				v &= 0xff
			case 2:
				v &= 0xffffffff
			case 3:
				v = 1 << (v & 63)
			}
			vec[k] = v
		}
		vecs[i] = vec
	}
	return vecs
}

// poison is what a register outside the live-in set holds before a window or
// candidate writes it: every legal candidate is structurally barred from
// reading one, so if a bug ever lets one through, the poison makes the
// divergence visible instead of silently matching zeroes.
func poison(r ebpf.Register) uint64 { return 0xbad0bad000000000 | uint64(r) }

// vectorSet is the test inputs for every window with n live-in registers
// under one seed. It is built once per Optimize call and only read
// afterwards, so the search workers share it.
type vectorSet struct {
	// size is the number of filter vectors.
	size int
	// liveIn[i] is the column of the i-th live-in register over the filter
	// vectors. The filter is a conjunction over vectors, so their order is
	// unobservable; the columns put the seeded-random vectors first, because
	// a wrong candidate rarely survives one of those, while the lattice's
	// leading all-zero corner lets most of them through.
	liveIn [][]uint64
	// poison[r] is the constant column of register r when it is not live-in.
	poison columns
	// proof is the row-form vectors survivors are re-proven on: the filter
	// vectors plus a second random stream.
	proof [][]uint64
}

// carve cuts the next size-element column off the front of slab.
func carve(slab *[]uint64, size int) []uint64 {
	c := (*slab)[:size:size]
	*slab = (*slab)[size:]
	return c
}

func newVectorSet(n int, seed int64) *vectorSet {
	filter := buildVectors(n, seed)
	vs := &vectorSet{size: len(filter), liveIn: make([][]uint64, n)}
	lattice := 0
	if n > 0 {
		lattice = len(filter) - randomVecs
	}
	slab := make([]uint64, (n+len(vs.poison))*vs.size)
	for i := range vs.liveIn {
		vs.liveIn[i] = carve(&slab, vs.size)
		for v := range filter {
			vs.liveIn[i][v] = filter[(lattice+v)%len(filter)][i]
		}
	}
	for r := range vs.poison {
		vs.poison[r] = carve(&slab, vs.size)
		for v := range vs.poison[r] {
			vs.poison[r][v] = poison(ebpf.Register(r))
		}
	}
	// Its own backing array: filter's spare capacity must not be written by
	// an append the workers could race on.
	vs.proof = make([][]uint64, 0, len(filter)+randomVecs)
	vs.proof = append(append(vs.proof, filter...), randomVectors(n, seed+0x517e, randomVecs)...)
	return vs
}
