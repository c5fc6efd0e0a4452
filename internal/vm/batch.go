package vm

// Batch is a reusable result set for RunBatch. Reset grows the backing
// slices only when a batch is larger than any seen before, so a caller that
// holds one Batch per serving loop performs zero steady-state allocations.
type Batch struct {
	RV    []int64 // r0 per packet (0 when the packet faulted)
	Stats []Stats // per-packet stats (partial up to the fault, like Run)
	Errs  []error // nil, or the packet's *RuntimeError
}

// Reset sizes the batch for n results, reusing capacity.
func (b *Batch) Reset(n int) {
	if cap(b.RV) < n {
		b.RV = make([]int64, n)
	}
	if cap(b.Stats) < n {
		b.Stats = make([]Stats, n)
	}
	if cap(b.Errs) < n {
		b.Errs = make([]error, n)
	}
	b.RV = b.RV[:n]
	b.Stats = b.Stats[:n]
	b.Errs = b.Errs[:n]
	for i := range b.Errs {
		b.Errs[i] = nil
	}
}

// RunBatch executes the program once per context, filling out with one
// result per slot, and returns the number of faulting packets. Semantics
// match len(ctxs) sequential Run calls: machine state (maps, caches, helper
// rng/ktime) carries across packets, a faulting packet leaves its earlier
// siblings' effects in place and reports its error in its own Errs slot, and
// later packets still run. pkts may be shorter than ctxs (tracepoint batches
// pass nil); missing entries run with no packet.
//
// The fast engine executes each packet with zero heap allocations; the
// batch amortizes everything else a serving loop pays per packet (metrics
// fan-in, lifecycle locking, context rebuild) across n packets. With
// Config.Metrics set, the registry ends up as after len(ctxs) Run calls, but
// the batch's runs are published together once the batch has run.
func (m *Machine) RunBatch(ctxs, pkts [][]byte, out *Batch) int {
	out.Reset(len(ctxs))
	faults := 0
	for i := range ctxs {
		var pkt []byte
		if i < len(pkts) {
			pkt = pkts[i]
		}
		var rv int64
		var err error
		if m.code != nil {
			// The fast engine accumulates straight into the caller's
			// Stats slot; no per-packet copy.
			rv, err = m.runFast(ctxs[i], pkt, &out.Stats[i])
		} else {
			rv, out.Stats[i], err = m.runRef(ctxs[i], pkt)
		}
		out.RV[i] = rv
		out.Errs[i] = err
		if err != nil {
			faults++
		}
	}
	m.cfg.Metrics.recordBatch(out)
	return faults
}
