// Package netbench reproduces the paper's network testbed (§5.1): a T-Rex
// style traffic generator driving a device under test, measuring MLFFR
// throughput (maximum loss-free forwarding rate) and loop latency under the
// paper's four load levels (low/medium/high/saturate). Packet processing
// cost comes from executing the XDP program on the VM; the queueing model
// then turns per-packet cycles into Mpps and microseconds.
package netbench

import (
	"fmt"
	"math/rand"

	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// CPUHz is the modelled DUT core frequency (xl170: Intel E5-2640v4, 2.4 GHz).
const CPUHz = 2.4e9

// wireLatencyUS is the fixed fiber+NIC round-trip component of the loop.
const wireLatencyUS = 35.0

// DefaultBatchSize is the packets-per-RunBatch call used by batch serving.
const DefaultBatchSize = 64

// Load identifies the paper's latency workload levels.
type Load int

// Workload levels (§5.1, Throughput and Latency).
const (
	LoadLow Load = iota
	LoadMedium
	LoadHigh
	LoadSaturate
)

func (l Load) String() string {
	return [...]string{"low", "medium", "high", "saturate"}[l]
}

// Trace is a deterministic packet workload.
type Trace struct {
	Packets [][]byte
}

// NewTrace builds a 64-byte-packet trace (the MLFFR measurement size) with
// an IPv4/TCP mix and varied flow tuples.
func NewTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{}
	for i := 0; i < n; i++ {
		pkt := make([]byte, 64)
		rng.Read(pkt)
		pkt[12], pkt[13] = 0x08, 0x00 // IPv4
		pkt[14] = 0x45
		pkt[14+9] = 6 // TCP
		switch {
		case i%11 == 10:
			pkt[12], pkt[13] = 0x08, 0x06 // the odd ARP frame
		case i%7 == 6:
			pkt[14+9] = 17 // some UDP
		}
		// Keep total length plausible.
		pkt[14+2], pkt[14+3] = 0, 46
		tr.Packets = append(tr.Packets, pkt)
	}
	return tr
}

// Profile is the measured execution profile of a program over a trace.
type Profile struct {
	MeanCycles   float64
	Stats        vm.Stats // accumulated over the trace (hw counters included)
	PacketsRun   int
	ServiceTimeS float64 // seconds per packet
}

// ProfileProgram executes prog over the trace on a warm machine.
func ProfileProgram(prog *ebpf.Program, tr *Trace) (*Profile, error) {
	m, err := vm.New(prog, vm.Config{Seed: 1234, UseHW: true})
	if err != nil {
		return nil, err
	}
	// Warm-up pass (caches, branch predictor, map state).
	for _, pkt := range tr.Packets[:len(tr.Packets)/4+1] {
		ctx := vm.BuildXDPContext(len(pkt))
		if _, _, err := m.Run(ctx, pkt); err != nil {
			return nil, fmt.Errorf("netbench: warmup: %w", err)
		}
	}
	var total vm.Stats
	for _, pkt := range tr.Packets {
		ctx := vm.BuildXDPContext(len(pkt))
		_, st, err := m.Run(ctx, pkt)
		if err != nil {
			return nil, fmt.Errorf("netbench: %w", err)
		}
		total.Add(st)
	}
	mean := float64(total.Cycles) / float64(len(tr.Packets))
	return &Profile{
		MeanCycles:   mean,
		Stats:        total,
		PacketsRun:   len(tr.Packets),
		ServiceTimeS: mean / CPUHz,
	}, nil
}

// ThroughputMpps is the single-core MLFFR in millions of packets per second:
// the service rate of the bottleneck core.
func (p *Profile) ThroughputMpps() float64 {
	return 1.0 / p.ServiceTimeS / 1e6
}

// OfferedRate returns the offered load (pps) for a workload level, defined
// relative to the unoptimized pipeline's throughput as in §5.1:
// low < clang tput, medium = clang tput, high = best-found tput,
// saturate > high.
func OfferedRate(level Load, clangMpps, bestMpps float64) float64 {
	switch level {
	case LoadLow:
		return clangMpps * 0.9 * 1e6
	case LoadMedium:
		return clangMpps * 1e6
	case LoadHigh:
		return bestMpps * 1e6
	default: // saturate
		return bestMpps * 1.05 * 1e6
	}
}

// LatencyUS models the loop latency (µs) of the DUT at an offered rate,
// using an M/D/1 queue with a bounded ring buffer: below saturation the
// Pollaczek-Khinchine delay applies; past saturation the latency is the
// full ring drain time.
func (p *Profile) LatencyUS(offeredPPS float64) float64 {
	const ringSlots = 4096
	mu := 1.0 / p.ServiceTimeS
	rho := offeredPPS / mu
	serviceUS := p.ServiceTimeS * 1e6
	if rho >= 0.999 {
		// Saturated: the queue stays full.
		return wireLatencyUS + float64(ringSlots)*serviceUS
	}
	wait := serviceUS * rho / (2 * (1 - rho)) // M/D/1 queueing delay
	if maxWait := float64(ringSlots) * serviceUS; wait > maxWait {
		wait = maxWait
	}
	return wireLatencyUS + serviceUS + wait
}

// ContextSwitches models scheduler preemptions of the DUT core over a
// window: proportional to the cycles consumed servicing the offered load
// (longer programs hold the core longer and get preempted more), plus a
// housekeeping floor.
func (p *Profile) ContextSwitches(offeredPPS float64, windowS float64) float64 {
	served := offeredPPS
	if mu := 1.0 / p.ServiceTimeS; served > mu {
		served = mu
	}
	busyFrac := served * p.ServiceTimeS
	return windowS * (120 + 3800*busyFrac)
}

// CacheMissesPer1k returns the cache misses per 1000 packets from the
// profiled hardware counters.
func (p *Profile) CacheMissesPer1k() float64 {
	return float64(p.Stats.CacheMisses) / float64(p.PacketsRun) * 1000
}

// CacheRefsPer1k returns cache references per 1000 packets.
func (p *Profile) CacheRefsPer1k() float64 {
	return float64(p.Stats.CacheRefs) / float64(p.PacketsRun) * 1000
}

// BranchMissesPer1k returns branch mispredictions per 1000 packets.
func (p *Profile) BranchMissesPer1k() float64 {
	return float64(p.Stats.BranchMisses) / float64(p.PacketsRun) * 1000
}
