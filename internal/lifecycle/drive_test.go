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
	const n = 2*driveChunk + 5
	var src guard.Stream
	var d Driver
	var hist Verdicts
	src.Reset(ebpf.HookXDP, 1)
	if err := d.Drive(m, "s", &src, n, &hist); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range hist.XDP {
		total += c
	}
	for _, c := range hist.Other {
		total += c
	}
	if st, _ := m.StatusOf("s"); total != n || st.Served != n {
		t.Fatalf("histogram counts %d packets, served=%d, want %d", total, st.Served, n)
	}
	if avg := testing.AllocsPerRun(10, func() {
		src.Reset(ebpf.HookXDP, 1)
		if err := d.Drive(m, "s", &src, n, &hist); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm Drive allocates %.1f times per %d packets", avg, n)
	}

	src.Reset(ebpf.HookXDP, 1)
	if err := d.Drive(m, "nope", &src, n, nil); err == nil {
		t.Fatal("drive through an unknown slot succeeded")
	}
	if err := m.Deploy("f", progSource(faultingProg(), nil)); err != nil {
		t.Fatal(err)
	}
	first := guard.Inputs(ebpf.HookXDP, 1, 1)[0]
	_, _, want := m.Serve("f", first.Ctx, first.Pkt)
	src.Reset(ebpf.HookXDP, 1)
	if err := d.Drive(m, "f", &src, 4, nil); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("drive over a faulting program returned %v, Serve returns %v", err, want)
	}
}

// However many packets one drive serves, the driver holds one chunk of
// inputs.
func TestDriverHoldsOneChunk(t *testing.T) {
	m := NewManager(Config{})
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	var src guard.Stream
	var d Driver
	src.Reset(ebpf.HookXDP, 3)
	if err := d.Drive(m, "s", &src, 100000, nil); err != nil {
		t.Fatal(err)
	}
	if cap(d.ins) > driveChunk || cap(d.ctxs) > driveChunk || cap(d.pkts) > driveChunk {
		t.Fatalf("driver holds %d inputs, %d contexts and %d packets after 100000; chunk is %d",
			cap(d.ins), cap(d.ctxs), cap(d.pkts), driveChunk)
	}
}
