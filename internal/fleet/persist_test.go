package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/journal"
	"merlin/internal/metrics"
)

// TestControllerCompactsAcrossRestarts: the compaction trigger counts the
// records earlier incarnations left in the journal, so a controller that
// restarts before it appends CompactEvery records itself still compacts,
// and neither the journal nor each boot's replay grows without bound.
func TestControllerCompactsAcrossRestarts(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	lt := NewLocalTransport()
	for _, name := range []string{"w1", "w2"} {
		lt.AddWorker(name, testWorkerConfig())
	}
	life := func(cfg Config) (*Controller, *journal.Log) {
		jl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := New(cfg, lt)
		c.AttachJournal(jl)
		if _, err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		return c, jl
	}
	// Earlier lives: each rejoins both workers, far below its own threshold.
	for i := 0; i < every/2; i++ {
		c, jl := life(Config{})
		for _, name := range []string{"w1", "w2"} {
			if err := c.Join(name, name); err != nil {
				t.Fatal(err)
			}
		}
		jl.Close()
	}

	c, jl := life(Config{CompactEvery: every})
	defer jl.Close()
	if n := jl.Records(); n < every {
		t.Fatalf("earlier lives left %d records, want >= %d", n, every)
	}
	if _, ok := jl.Snapshot(); ok {
		t.Fatal("a snapshot exists before the threshold was crossed")
	}
	if err := c.Join("w1", "w1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := jl.Snapshot(); !ok {
		t.Fatal("no snapshot: the journal past CompactEvery was not compacted")
	}
	if n := jl.Records(); n != 0 {
		t.Fatalf("journal holds %d records after the compaction", n)
	}
}

// TestControllerJournalDegradesAndReattaches: the controller's journal
// fails every write; the control plane keeps answering in memory, the
// degraded gauge reads 1, a probe on the backoff schedule fails, and once
// the disk heals one Tick re-attaches and re-persists the whole state, which
// a fresh controller recovers.
func TestControllerJournalDegradesAndReattaches(t *testing.T) {
	dir := t.TempDir()
	// Three failed appends detach the journal (the library's DegradeAfter);
	// the fourth failure is the first probe.
	var steps []chaos.Step
	for i := 0; i < 4; i++ {
		steps = append(steps, chaos.Step{Op: chaos.OpWrite, Name: "journal.log", Fault: chaos.EIO})
	}
	inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(steps...))
	inj.SlowDelay = 0
	jl, err := journal.OpenWith(dir, journal.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	lt := NewLocalTransport()
	for _, name := range []string{"w1", "w2", "w3"} {
		lt.AddWorker(name, testWorkerConfig())
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := metrics.New()
	cfg := Config{Seed: 42, TrafficBatch: 4, Replication: 2, RPCTimeout: time.Second,
		RetryBase: time.Millisecond, BreakerBase: 5 * time.Millisecond, Now: clk.Now, Metrics: reg}
	c := New(cfg, lt)
	c.AttachJournal(jl)
	degraded := func() int64 { return reg.Snapshot()["merlin_fleet_journal_degraded"] }

	for _, name := range []string{"w1", "w2", "w3"} {
		if err := c.Join(name, name); err != nil {
			t.Fatalf("join %s while the journal fails: %v", name, err)
		}
	}
	if h := c.FleetStatus().Journal; !h.Degraded {
		t.Fatalf("journal not degraded after three failed appends: %+v", h)
	}
	if got := degraded(); got != 1 {
		t.Fatalf("merlin_fleet_journal_degraded = %d while the journal fails", got)
	}
	for _, src := range []string{"pass:0", "pass:8"} {
		if r := runRollout(t, c, "s", src); r.Phase != PhaseDone {
			t.Fatalf("rollout %s while degraded = %+v", src, r)
		}
	}
	if tr := c.Traffic("s", 16); tr.Sent != 16 || tr.Dropped != 0 {
		t.Fatalf("traffic while degraded: %+v", tr)
	}
	if err := c.Deploy("t", "pass:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}

	// The first probe is due after RetryBase and fails; the backoff doubles.
	clk.Advance(time.Second)
	c.Tick()
	h := c.FleetStatus().Journal
	if !h.Degraded || h.RetryIn != 2*time.Second {
		t.Fatalf("after a failed probe: %+v", h)
	}
	c.Tick()
	if !c.FleetStatus().Journal.Degraded {
		t.Fatal("a probe ran before its backoff expired")
	}
	clk.Advance(2 * time.Second)
	c.Tick()
	want := c.FleetStatus()
	if want.Journal.Degraded || want.Journal.Reattaches != 1 {
		t.Fatalf("one Tick past the backoff did not re-attach: %+v", want.Journal)
	}
	if got := degraded(); got != 0 {
		t.Fatalf("merlin_fleet_journal_degraded = %d after the re-attach", got)
	}
	var journalEvents []string
	for _, ev := range c.Events() {
		if ev.Kind == EventJournal {
			journalEvents = append(journalEvents, ev.Detail)
		}
	}
	if len(journalEvents) != 2 || !strings.HasPrefix(journalEvents[0], "journal detached after 3 consecutive append failures") ||
		!strings.HasPrefix(journalEvents[1], "journal re-attached") {
		t.Fatalf("journal events = %q, want one detach and one re-attach", journalEvents)
	}
	if _, ok := jl.Snapshot(); !ok {
		t.Fatal("re-attaching wrote no snapshot")
	}
	jl.Close()

	jl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	c2 := New(cfg, lt)
	c2.AttachJournal(jl2)
	rs, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got := c2.FleetStatus()
	if rs.RolloutPhase != want.Rollout.Phase || !reflect.DeepEqual(got.Rollout, want.Rollout) {
		t.Fatalf("recovered rollout %+v, want %+v", got.Rollout, want.Rollout)
	}
	if !reflect.DeepEqual(got.Catalog, want.Catalog) {
		t.Fatalf("recovered catalog %+v, want %+v", got.Catalog, want.Catalog)
	}
	var gw, ww []string
	for _, w := range got.Workers {
		gw = append(gw, w.Name+"@"+w.Addr)
	}
	for _, w := range want.Workers {
		ww = append(ww, w.Name+"@"+w.Addr)
	}
	if !reflect.DeepEqual(gw, ww) {
		t.Fatalf("recovered workers %v, want %v", gw, ww)
	}
	for i := range want.Placements {
		want.Placements[i].Live = 0 // recovered workers are down until probed
	}
	if !reflect.DeepEqual(got.Placements, want.Placements) {
		t.Fatalf("recovered placements %+v, want %+v", got.Placements, want.Placements)
	}
}
