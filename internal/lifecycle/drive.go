package lifecycle

import (
	"merlin/internal/guard"
	"merlin/internal/vm"
)

// driveChunk is the most packets a Driver hands to one ServeBatch call: large
// enough to amortise the manager lock and the batch set-up, small enough that
// the slot's pristine fallback copies stay a few hundred KiB.
const driveChunk = 256

// Driver feeds a synthetic input stream through Manager.ServeBatch in chunks,
// into buffers it owns and reuses, so a daemon's traffic command runs the same
// zero-allocation path the batch engine is measured on. A Driver serves one
// stream at a time; the zero value is ready to use.
type Driver struct {
	ctxs, pkts [][]byte
	out        vm.Batch
}

// Drive serves inputs through the slot in order, exactly as len(inputs)
// sequential Serve calls would (see ServeBatch), and counts each packet's
// verdict into hist when hist is non-nil. The first packet left with an error
// after degradation handling ends the drive with that error; the packets
// sharing its chunk have been served by then.
func (d *Driver) Drive(m *Manager, slot string, inputs []guard.Input, hist map[int64]int) error {
	for len(inputs) > 0 {
		n := min(len(inputs), driveChunk)
		d.ctxs, d.pkts = d.ctxs[:0], d.pkts[:0]
		for _, in := range inputs[:n] {
			d.ctxs = append(d.ctxs, in.Ctx)
			d.pkts = append(d.pkts, in.Pkt)
		}
		if _, err := m.ServeBatch(slot, d.ctxs, d.pkts, &d.out); err != nil {
			return err
		}
		for i, err := range d.out.Errs {
			if err != nil {
				return err
			}
			if hist != nil {
				hist[d.out.RV[i]]++
			}
		}
		inputs = inputs[n:]
	}
	return nil
}
