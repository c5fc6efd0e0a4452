package lifecycle

import (
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/vm"
)

// driveChunk is the most packets a Driver hands to one ServeBatch call: large
// enough to amortise the manager lock and the batch set-up, small enough that
// the slot's pristine fallback copies stay a few hundred KiB.
const driveChunk = 256

// Driver feeds a synthetic input stream through Manager.ServeBatch in chunks,
// generating each chunk into input buffers it owns and reuses, so a daemon's
// traffic command runs the same zero-allocation path the batch engine is
// measured on and holds one chunk of inputs however many packets it serves.
// A Driver serves one stream at a time; the zero value is ready to use.
type Driver struct {
	ins        []guard.Input
	ctxs, pkts [][]byte
	out        vm.Batch
}

// Drive serves the next n inputs of src through the slot in order, exactly
// as n sequential Serve calls would (see ServeBatch), and counts each
// packet's verdict into hist when hist is non-nil. The first packet left with
// an error after degradation handling ends the drive with that error; the
// packets sharing its chunk have been served by then.
func (d *Driver) Drive(m *Manager, slot string, src *guard.Stream, n int, hist *Verdicts) error {
	for n > 0 {
		if d.ins == nil {
			d.ins = make([]guard.Input, driveChunk)
			d.ctxs, d.pkts = make([][]byte, driveChunk), make([][]byte, driveChunk)
		}
		k := min(n, driveChunk)
		src.Fill(d.ins[:k])
		for i, in := range d.ins[:k] {
			d.ctxs[i], d.pkts[i] = in.Ctx, in.Pkt
		}
		if _, err := m.ServeBatch(slot, d.ctxs[:k], d.pkts[:k], &d.out); err != nil {
			return err
		}
		for i, err := range d.out.Errs {
			if err != nil {
				return err
			}
			if hist != nil {
				hist.add(d.out.RV[i])
			}
		}
		n -= k
	}
	return nil
}

// Verdicts is a histogram of program return values: the XDP action codes
// count in a fixed array indexed by code, any other value in a map made on
// first use.
type Verdicts struct {
	XDP   [ebpf.XDPRedirect + 1]int
	Other map[int64]int
}

func (v *Verdicts) add(rv int64) {
	if rv >= 0 && rv < int64(len(v.XDP)) {
		v.XDP[rv]++
		return
	}
	if v.Other == nil {
		v.Other = map[int64]int{}
	}
	v.Other[rv]++
}

// Reset empties the histogram, keeping its map for reuse.
func (v *Verdicts) Reset() {
	clear(v.Other)
	*v = Verdicts{Other: v.Other}
}
