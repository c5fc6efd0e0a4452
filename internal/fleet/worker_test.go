package fleet

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

// A traffic command streams its packets through one chunk of reused
// buffers, so what it allocates does not grow with its count, and a count
// above the per-command maximum is refused before a packet is served.
func TestTrafficBoundedAndStreamed(t *testing.T) {
	wk := NewLocalTransport().AddWorker("w", testWorkerConfig()).Worker
	if err := wk.Dispatch(io.Discard, "deploy s pass:1"); err != nil {
		t.Fatal(err)
	}
	err := wk.Dispatch(io.Discard, "traffic s 1048577")
	if err == nil || !strings.Contains(err.Error(), "exceeds the per-command maximum 1048576") {
		t.Fatalf("traffic above the maximum answered %v", err)
	}
	if st, _ := wk.Mgr.StatusOf("s"); st.Served != 0 {
		t.Fatalf("refused traffic served %d packets", st.Served)
	}

	if err := wk.Dispatch(io.Discard, "traffic s 256"); err != nil { // sizes the buffers
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := wk.Dispatch(io.Discard, "traffic s 100000"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("traffic s 100000 allocated %d bytes; one chunk of inputs is reused", grew)
	}
	if st, _ := wk.Mgr.StatusOf("s"); st.Served != 100256 {
		t.Fatalf("served %d packets, want 100256", st.Served)
	}
}
