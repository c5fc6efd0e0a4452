package lifecycle

import (
	"testing"

	"merlin/internal/ebpf"
	"merlin/internal/guard"
)

// A drive longer than one chunk counts every packet once, reuses its buffers
// without allocating, and reports the first unrecoverable packet fault as the
// drive's error, as a per-packet Serve loop would.
func TestDriverChunksCountsAndFails(t *testing.T) {
	m := NewManager(Config{})
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	inputs := guard.Inputs(ebpf.HookXDP, 2*driveChunk+5, 1)
	var d Driver
	hist := map[int64]int{}
	if err := d.Drive(m, "s", inputs, hist); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if st, _ := m.StatusOf("s"); total != len(inputs) || st.Served != uint64(len(inputs)) {
		t.Fatalf("histogram counts %d packets, served=%d, want %d", total, st.Served, len(inputs))
	}
	if len(d.ctxs) > driveChunk {
		t.Fatalf("driver buffered %d packets, chunk is %d", len(d.ctxs), driveChunk)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := d.Drive(m, "s", inputs, hist); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm Drive allocates %.1f times per %d packets", avg, len(inputs))
	}

	if err := d.Drive(m, "nope", inputs, nil); err == nil {
		t.Fatal("drive through an unknown slot succeeded")
	}
	if err := m.Deploy("f", progSource(faultingProg(), nil)); err != nil {
		t.Fatal(err)
	}
	_, _, want := m.Serve("f", inputs[0].Ctx, inputs[0].Pkt)
	if err := d.Drive(m, "f", inputs[:4], nil); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("drive over a faulting program returned %v, Serve returns %v", err, want)
	}
}
