// Package vm executes eBPF programs with a deterministic cycle cost model
// and optional microarchitecture models (cache, branch predictor). It plays
// the role of the kernel's interpreter/JIT in the paper's testbed: runtime
// overhead, throughput and latency experiments are all driven by the cycle
// counts this machine reports.
package vm

import (
	"fmt"

	"merlin/internal/ebpf"
	"merlin/internal/hw"
	"merlin/internal/maps"
)

// Synthetic address-space bases. Regions are disjoint and sparse so stray
// pointer arithmetic faults instead of silently aliasing.
const (
	stackBase  = 0x7fff_0000_0200 // r10; valid bytes are [base-512, base)
	ctxBase    = 0x1000_0000_0000
	pktBase    = 0x2000_0000_0000
	kmemBase   = 0x3000_0000_0000
	mapHandle  = 0x4000_0000_0000 // opaque map handles (not dereferenceable)
	mapValBase = 0x5000_0000_0000
	mapValStep = 0x1_0000_0000
)

// StackSize is the per-program stack limit, as in the kernel.
const StackSize = 512

// CostModel assigns cycle costs per instruction class. Helper costs come
// from the helpers table.
type CostModel struct {
	ALU        uint64
	WideImm    uint64 // lddw
	Load       uint64
	Store      uint64
	Atomic     uint64
	Branch     uint64
	CallBase   uint64
	CacheMiss  uint64 // added per missing memory access
	BranchMiss uint64 // added per mispredicted branch
}

// DefaultCosts mirrors the relative latencies the paper leans on (Agner Fog
// tables): single-cycle ALU, multi-cycle loads, expensive locked ops that
// are still cheaper than load+op+store round trips, and costly helpers.
func DefaultCosts() CostModel {
	return CostModel{
		ALU:        1,
		WideImm:    2,
		Load:       4,
		Store:      2,
		Atomic:     7,
		Branch:     1,
		CallBase:   10,
		CacheMiss:  30,
		BranchMiss: 14,
	}
}

// Stats are the per-run (or accumulated) execution counters.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	CacheRefs    uint64
	CacheMisses  uint64
	Branches     uint64
	BranchMisses uint64
	HelperCalls  uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Instructions += other.Instructions
	s.Cycles += other.Cycles
	s.CacheRefs += other.CacheRefs
	s.CacheMisses += other.CacheMisses
	s.Branches += other.Branches
	s.BranchMisses += other.BranchMisses
	s.HelperCalls += other.HelperCalls
}

// Config parameterizes a Machine.
type Config struct {
	Costs CostModel
	// NCPU sizes per-CPU maps; CPU selects the executing processor.
	NCPU int
	CPU  int
	// Seed drives get_prandom_u32 and ktime.
	Seed uint64
	// UseHW enables the cache and branch-predictor models.
	UseHW bool
	// StepLimit aborts runaway programs (default 1<<22 steps).
	StepLimit int
	// Metrics, when set, receives per-run telemetry (run/instruction/cycle
	// counters, cycle and instruction histograms, fault kinds). Recording
	// is lock-free and allocation-free; one Metrics is typically shared by
	// every machine of a deployment.
	Metrics *Metrics
}

// Machine holds a loaded program plus its maps and microarchitectural state.
// State persists across runs (warm caches, populated maps), matching a
// long-running attached program.
type Machine struct {
	prog *ebpf.Program
	cfg  Config
	maps []maps.Map

	// Kmem is the synthetic kernel memory probe_read reads from
	// (task structs, filenames, ...). Harnesses populate it per event.
	Kmem []byte

	// lay is the branch-resolution table (each element's slot, each slot's
	// element), computed once at load time (the program is immutable) so
	// Run allocates nothing.
	lay ebpf.Layout

	// mapKeySz / mapValSz cache per-map key and value sizes so the hot
	// map helpers skip the Spec() interface call (and its struct copy).
	mapKeySz []int
	mapValSz []int

	// code is the pre-decoded direct-threaded form (decode.go), compiled
	// once at load, with rarely-touched per-element details split into the
	// parallel cold table. nil code pins the reference switch interpreter
	// (RefMachine, or the fallback when decoding rejects a program). fr is
	// the fast engine's register file and accounting state, embedded here
	// so runs allocate nothing.
	code []uop
	cold []coldOp
	fr   frame

	rng   uint64
	ktime uint64
	stack [StackSize]byte

	// Accumulated counters across all runs.
	Total Stats

	// Cache and Pred come last so that code, cold, fr and stack keep their
	// offsets from when the slot table was one slice and a map: with fr 16
	// bytes off a cache line, serve-batch measured 3-5 % slower.
	Cache *hw.Cache
	Pred  *hw.BranchPredictor
}

// New loads prog into a fresh machine, instantiating its maps, and
// pre-decodes it for the fast engine.
func New(prog *ebpf.Program, cfg Config) (*Machine, error) {
	m, err := load(prog, cfg)
	if err != nil {
		return nil, err
	}
	// Pre-decode into the direct-threaded form. Decoding never rejects a
	// program the reference interpreter accepts (would-be faults compile to
	// fault closures), but if it ever does, the machine silently serves
	// with the reference interpreter instead.
	if code, cold, err := compile(m); err == nil {
		m.code, m.cold = code, cold
	}
	return m, nil
}

// load builds a machine for prog with its maps instantiated and no
// pre-decoded code: on its own it runs the reference interpreter.
func load(prog *ebpf.Program, cfg Config) (*Machine, error) {
	if cfg.NCPU <= 0 {
		cfg.NCPU = 1
	}
	if cfg.StepLimit <= 0 {
		cfg.StepLimit = 1 << 22
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	m := &Machine{prog: prog, cfg: cfg, rng: cfg.Seed*2654435761 + 1, Kmem: make([]byte, 4096)}
	m.lay = prog.Layout()
	for _, spec := range prog.Maps {
		mp, err := maps.New(spec, cfg.NCPU)
		if err != nil {
			return nil, err
		}
		m.maps = append(m.maps, mp)
		m.mapKeySz = append(m.mapKeySz, spec.KeySize)
		m.mapValSz = append(m.mapValSz, spec.ValueSize)
	}
	if cfg.UseHW {
		m.Cache = hw.NewL1D()
		m.Pred = hw.NewBranchPredictor()
	}
	return m, nil
}

// Map returns the instantiated map at index i (for harness inspection).
func (m *Machine) Map(i int) maps.Map { return m.maps[i] }

// NumMaps returns the number of instantiated maps.
func (m *Machine) NumMaps() int { return len(m.maps) }

// MapStates serializes every map's contents in declaration order, for
// journaling and state transfer at promotion.
func (m *Machine) MapStates() [][]byte {
	out := make([][]byte, len(m.maps))
	for i, mp := range m.maps {
		out[i] = maps.SaveState(mp)
	}
	return out
}

// SetMapStates restores contents produced by MapStates. The map list must
// match (same count, same specs) — it does for a program journaled and
// reloaded unchanged.
func (m *Machine) SetMapStates(states [][]byte) error {
	if len(states) != len(m.maps) {
		return fmt.Errorf("vm: %d map states for %d maps", len(states), len(m.maps))
	}
	for i, st := range states {
		if err := maps.LoadState(m.maps[i], st); err != nil {
			return fmt.Errorf("vm: map %d (%s): %w", i, m.maps[i].Spec().Name, err)
		}
	}
	return nil
}

// TransferMapsFrom copies the contents of every map in src that has a
// same-named, identically-specced map in m. Maps without a match (the new
// program added or dropped one) are left as they are; the count of maps
// actually transferred is returned. The lifecycle manager calls this at
// promotion so a hot-swapped program inherits the incumbent's counters.
func (m *Machine) TransferMapsFrom(src *Machine) (int, error) {
	n := 0
	for _, dst := range m.maps {
		s := src.MapByName(dst.Spec().Name)
		if s == nil || s.Spec() != dst.Spec() {
			continue
		}
		if err := maps.Transfer(dst, s); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// MapByName returns the named map, or nil.
func (m *Machine) MapByName(name string) maps.Map {
	for _, mp := range m.maps {
		if mp.Spec().Name == name {
			return mp
		}
	}
	return nil
}

// Program returns the loaded program.
func (m *Machine) Program() *ebpf.Program { return m.prog }

// region resolves a VM address range to backing memory.
func (m *Machine) region(addr uint64, size int, ctx, pkt []byte) ([]byte, int, error) {
	end := addr + uint64(size)
	switch {
	case addr >= stackBase-StackSize && end <= stackBase:
		return m.stack[:], int(addr - (stackBase - StackSize)), nil
	case addr >= ctxBase && end <= ctxBase+uint64(len(ctx)):
		return ctx, int(addr - ctxBase), nil
	case addr >= pktBase && end <= pktBase+uint64(len(pkt)):
		return pkt, int(addr - pktBase), nil
	case addr >= kmemBase && end <= kmemBase+uint64(len(m.Kmem)):
		return m.Kmem, int(addr - kmemBase), nil
	case addr >= mapValBase:
		idx := int((addr - mapValBase) / mapValStep)
		if idx < len(m.maps) {
			back := m.maps[idx].Backing()
			off := (addr - mapValBase) % mapValStep
			if off+uint64(size) <= uint64(len(back)) {
				return back, int(off), nil
			}
		}
	}
	return nil, 0, &RuntimeError{Kind: FaultBadMemory, PC: -1,
		Detail: fmt.Sprintf("bad memory access at %#x size %d", addr, size)}
}

// HelperState snapshots the nondeterministic helper state (the PRNG behind
// get_prandom_u32 and the synthetic ktime clock).
func (m *Machine) HelperState() (rng, ktime uint64) { return m.rng, m.ktime }

// SetHelperState overwrites the helper state. The lifecycle manager uses it
// to replay the incumbent's helper stream into a mirrored candidate, so a
// return-value divergence means the programs differ — not their dice rolls.
func (m *Machine) SetHelperState(rng, ktime uint64) { m.rng, m.ktime = rng, ktime }

func (m *Machine) prandom() uint64 {
	// xorshift64*
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return m.rng * 2685821657736338717
}
