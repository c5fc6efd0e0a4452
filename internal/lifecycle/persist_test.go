package lifecycle

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/helpers"
	"merlin/internal/journal"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

// countProg counts every packet into slot 0 of an array map "cnt" (u64
// value, atomic add) and returns XDP_PASS, so map-state transfer and
// recovery are observable as a counter that must never go backwards.
func countProg(name string) *ebpf.Program {
	return &ebpf.Program{
		Name: name,
		Hook: ebpf.HookXDP,
		Insns: []ebpf.Instruction{
			// key = 0 at fp-4
			ebpf.Mov64Imm(ebpf.R6, 0),
			ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R6),
			ebpf.LoadMapPtr(ebpf.R1, 0),
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
			ebpf.Call(helpers.MapLookupElem),
			ebpf.JumpImm(ebpf.JumpEq, ebpf.R0, 0, 2),
			// *value += 1
			ebpf.Mov64Imm(ebpf.R1, 1),
			ebpf.Atomic(ebpf.SizeDW, ebpf.AtomicAdd, ebpf.R0, 0, ebpf.R1),
			ebpf.Mov64Imm(ebpf.R0, 2),
			ebpf.Exit(),
		},
		Maps: []ebpf.MapSpec{{Name: "cnt", Kind: 0, KeySize: 4, ValueSize: 8, MaxEntries: 1}},
	}
}

// liveCounter reads the live machine's packet counter.
func liveCounter(t *testing.T, m *Manager, name string) uint64 {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[name]
	if s == nil || s.live == nil {
		t.Fatalf("slot %s has no live deployment", name)
	}
	mp := s.live.machine.MapByName("cnt")
	if mp == nil {
		t.Fatalf("slot %s live machine has no cnt map", name)
	}
	return binary.LittleEndian.Uint64(mp.Backing()[:8])
}

func openJournal(t *testing.T, dir string) *journal.Log {
	t.Helper()
	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	return jl
}

// resolveCount is the test ResolveSource: it reattaches the "count" source.
func resolveCount(desc string) (Source, error) {
	if desc != "count" {
		return nil, fmt.Errorf("unknown source desc %q", desc)
	}
	return progSource(countProg("rebuilt"), nil), nil
}

// TestPromotionTransfersMapState is the in-memory half of the map-transfer
// guarantee: a promoted candidate continues from the incumbent's counters,
// and an explicit rollback carries them back again.
func TestPromotionTransfersMapState(t *testing.T) {
	m := NewManager(Config{ShadowRuns: 2, CanaryRuns: 2})
	if err := m.Deploy("s", progSource(countProg("v1"), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 3)
	if err := m.Deploy("s", progSource(countProg("v2"), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 4) // 2 shadow + 2 canary → cleared
	if err := m.Promote("s", false); err != nil {
		t.Fatal(err)
	}
	// Incumbent ran 7 packets; the candidate's own mirrored count (4) must
	// have been overwritten by the transfer.
	if got := liveCounter(t, m, "s"); got != 7 {
		t.Fatalf("counter after promotion = %d, want 7 (incumbent state transferred)", got)
	}
	ev, ok := findLastEvent(m.Events("s"), EventPromoted)
	if !ok || !containsStr(ev.Detail, "maps transferred") {
		t.Fatalf("promotion event missing map-transfer note: %+v", ev)
	}
	serveClean(t, m, "s", 2)
	if got := liveCounter(t, m, "s"); got != 9 {
		t.Fatalf("counter after post-promotion serves = %d, want 9", got)
	}

	// Rollback carries the fresher counters back to the old incumbent.
	if err := m.Rollback("s"); err != nil {
		t.Fatal(err)
	}
	if got := liveCounter(t, m, "s"); got != 9 {
		t.Fatalf("counter after rollback = %d, want 9 (state carried back)", got)
	}
	serveClean(t, m, "s", 1)
	if got := liveCounter(t, m, "s"); got != 10 {
		t.Fatalf("counter after post-rollback serve = %d, want 10", got)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func findLastEvent(evs []Event, kind EventKind) (Event, bool) {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == kind {
			return evs[i], true
		}
	}
	return Event{}, false
}

func countEvents(evs []Event, kind EventKind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestRecoverRoundTrip is the acceptance scenario: deploy → promote → crash
// (journal closed, manager dropped) → restart → the live slot, its
// generation, its last-known-good, its served counters and its map contents
// all come back, and the counter continues from where it left off.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := openJournal(t, dir)
	m := NewManager(Config{ShadowRuns: 2, CanaryRuns: 2, Journal: jl})
	opts := DeployOptions{SourceDesc: "count"}
	if err := m.DeployWith("s", progSource(countProg("v1"), nil), opts); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 3)
	if err := m.DeployWith("s", progSource(countProg("v2"), nil), opts); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 4)
	if err := m.Promote("s", false); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 2)
	if got := liveCounter(t, m, "s"); got != 9 {
		t.Fatalf("pre-crash counter = %d, want 9", got)
	}
	// Serves after the last transition mutated only map state; Flush captures
	// it the way merlind does after traffic.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh journal handle, fresh manager, fresh registry.
	reg := metrics.New()
	jl2 := openJournal(t, dir)
	defer jl2.Close()
	m2 := NewManager(Config{ShadowRuns: 2, CanaryRuns: 2, Journal: jl2,
		Metrics: reg, ResolveSource: resolveCount})
	rs, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Slots != 1 || rs.Deployments != 2 {
		t.Fatalf("recover stats %s: want 1 slot, 2 deployments (live + last-known-good)", rs)
	}
	if rs.CorruptRecords != 0 || rs.DroppedSlots != 0 || rs.UnresolvedSources != 0 {
		t.Fatalf("clean journal recovered with damage: %s", rs)
	}
	st, err := m2.StatusOf("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stage != StageLive || st.LiveGeneration != 2 {
		t.Fatalf("recovered status %s: want live gen 2", st)
	}
	if st.Served != 9 || st.CandidateGeneration != 0 {
		t.Fatalf("recovered status %s: want served=9 and no candidate", st)
	}
	if got := liveCounter(t, m2, "s"); got != 9 {
		t.Fatalf("recovered counter = %d, want 9 (map contents survived the restart)", got)
	}
	if ev, ok := findEvent(m2.Events("s"), EventRecovered); !ok {
		t.Fatalf("no %s event after Recover; events: %v", EventRecovered, eventKinds(m2.Events("s")))
	} else if !containsStr(ev.Detail, "gen 2") {
		t.Fatalf("recovered event detail %q does not name the live generation", ev.Detail)
	}

	// The counter continues — recovery restored state, not a fresh map.
	serveClean(t, m2, "s", 1)
	if got := liveCounter(t, m2, "s"); got != 10 {
		t.Fatalf("counter after recovered serve = %d, want 10", got)
	}
	st, _ = m2.StatusOf("s")
	if st.Served != 10 {
		t.Fatalf("served after recovered serve = %d, want 10", st.Served)
	}

	// Last-known-good survived too: rollback restores gen 1 (with the fresh
	// counters carried over).
	if err := m2.Rollback("s"); err != nil {
		t.Fatalf("rollback after recovery: %v", err)
	}
	st, _ = m2.StatusOf("s")
	if st.LiveGeneration != 1 {
		t.Fatalf("post-rollback generation = %d, want 1 (last-known-good recovered)", st.LiveGeneration)
	}
	if got := liveCounter(t, m2, "s"); got != 10 {
		t.Fatalf("post-rollback counter = %d, want 10", got)
	}

	// Recovery telemetry reached the registry.
	snap := reg.Snapshot()
	if snap["merlin_lifecycle_recovered_slots"] != 1 {
		t.Fatalf("merlin_lifecycle_recovered_slots = %d, want 1", snap["merlin_lifecycle_recovered_slots"])
	}
	if snap["merlin_lifecycle_recovered_deployments"] != 2 {
		t.Fatalf("merlin_lifecycle_recovered_deployments = %d, want 2",
			snap["merlin_lifecycle_recovered_deployments"])
	}
	if snap["merlin_journal_replayed_records_total"] == 0 {
		t.Fatal("merlin_journal_replayed_records_total = 0, want > 0")
	}
}

// TestRecoverDropsCandidate: a crash mid-promotion rolls back to the
// journaled incumbent — in-flight candidates are deliberately not persisted.
func TestRecoverDropsCandidate(t *testing.T) {
	dir := t.TempDir()
	jl := openJournal(t, dir)
	m := NewManager(Config{ShadowRuns: 8, CanaryRuns: 8, Journal: jl})
	if err := m.Deploy("s", progSource(countProg("v1"), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 1)
	if err := m.Deploy("s", progSource(countProg("v2"), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 3) // candidate mid-shadow at "crash" time
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2 := openJournal(t, dir)
	defer jl2.Close()
	m2 := NewManager(Config{ShadowRuns: 8, CanaryRuns: 8, Journal: jl2})
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	st, err := m2.StatusOf("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidateGeneration != 0 || st.Stage != StageLive || st.LiveGeneration != 1 {
		t.Fatalf("recovered status %s: want live gen 1 with the candidate dropped", st)
	}
	serveClean(t, m2, "s", 1)
	if got := liveCounter(t, m2, "s"); got != 5 {
		t.Fatalf("counter = %d, want 5 (4 pre-crash + 1 post-recovery)", got)
	}
}

// TestRecoverQuarantineBackoff: the watchdog ledger survives a restart with
// its remaining backoff intact — a recovered slot does not retry early, and
// retries resume (through ResolveSource) once the clock passes notBefore.
func TestRecoverQuarantineBackoff(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	jl := openJournal(t, dir)
	m := NewManager(Config{Journal: jl, Now: clock, BackoffBase: time.Minute, MaxRetries: 3})
	if err := m.Deploy("s", progSource(countProg("v1"), nil)); err != nil {
		t.Fatal(err)
	}
	failing := Source(func() (*core.Result, error) { return nil, fmt.Errorf("no such module") })
	if err := m.DeployWith("s", failing, DeployOptions{SourceDesc: "count"}); err == nil {
		t.Fatal("failing deploy must return its build error")
	}
	// attempts=0, notBefore = now+1min. Burn one retry so the ledger is
	// non-trivial: attempts=1, notBefore = now+2min.
	now = now.Add(61 * time.Second)
	m.Tick()
	st, _ := m.StatusOf("s")
	if st.Stage != StageQuarantined || st.Retries != 1 {
		t.Fatalf("pre-crash status %s: want quarantined with 1 retry consumed", st)
	}
	jl.Close()

	jl2 := openJournal(t, dir)
	defer jl2.Close()
	m2 := NewManager(Config{Journal: jl2, Now: clock, BackoffBase: time.Minute,
		MaxRetries: 3, ResolveSource: resolveCount})
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	st, err := m2.StatusOf("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stage != StageQuarantined || st.Retries != 1 {
		t.Fatalf("recovered status %s: want quarantined with 1 retry preserved", st)
	}

	// The recovered event ring contains the pre-crash retry; only count
	// retries fired after recovery.
	retries := countEvents(m2.Events("s"), EventRetry)

	// Backoff not yet expired: no retry fires.
	m2.Tick()
	if n := countEvents(m2.Events("s"), EventRetry); n != retries {
		t.Fatal("retry fired before the recovered backoff expired")
	}
	// Past notBefore the retry fires against the re-resolved source and the
	// rebuilt candidate stages.
	now = now.Add(3 * time.Minute)
	m2.Tick()
	if n := countEvents(m2.Events("s"), EventRetry); n != retries+1 {
		t.Fatalf("want exactly one retry after backoff expiry; events: %v", eventKinds(m2.Events("s")))
	}
	st, _ = m2.StatusOf("s")
	if st.CandidateGeneration == 0 {
		t.Fatalf("status %s: want a rebuilt candidate from the resolved source", st)
	}
}

// TestRecoverTornJournalSweep is the crash-injection sweep: the journal of a
// deploy→promote session is truncated at every byte offset, and every
// truncation must still
// recover a serving manager — a torn tail is data loss back to the previous
// record, never a startup failure.
func TestRecoverTornJournalSweep(t *testing.T) {
	dir := t.TempDir()
	jl := openJournal(t, dir)
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 1)
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 2) // clears shadow then canary
	if err := m.Promote("s", false); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 64 {
		t.Fatalf("journal only %d bytes; scenario did not journal", len(raw))
	}
	err = journal.SweepPrefixes(dir, len(raw)+1, func(caseDir string, p journal.Prefix) error {
		jl2, err := journal.Open(caseDir)
		if err != nil {
			return fmt.Errorf("Open: %w", err)
		}
		defer jl2.Close()
		m2 := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl2})
		rs, err := m2.Recover()
		if err != nil {
			return fmt.Errorf("Recover: %w", err)
		}
		if !p.Boundary && rs.CorruptRecords == 0 {
			t.Errorf("cut %d: mid-record truncation not counted corrupt (%s)", p.Cut, rs)
		}
		if p.Boundary && p.Cut > 0 && rs.Slots != 1 {
			t.Errorf("cut %d: clean boundary truncation lost the slot (%s)", p.Cut, rs)
		}
		if rs.Slots > 0 {
			serveClean(t, m2, "s", 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzRecover feeds arbitrary bytes to the journal (and snapshot) files and
// proves Recover never panics and never refuses to start: at worst it comes
// up with a fresh ledger.
func FuzzRecover(f *testing.F) {
	seedDir := f.TempDir()
	{
		jl, err := journal.Open(seedDir)
		if err != nil {
			f.Fatal(err)
		}
		m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
		_ = m.Deploy("s", progSource(countProg("v1"), nil))
		for i := 0; i < 3; i++ {
			ctx, pkt := packet(0)
			_, _, _ = m.Serve("s", ctx, pkt)
		}
		_ = m.Flush()
		_ = jl.Append([]byte(`{"Kind":"slot","Slot":{`), true) // framed but undecodable
		jl.Close()
	}
	raw, err := os.ReadFile(filepath.Join(seedDir, "journal.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The same bytes double as the snapshot to fuzz that decode path too.
		if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("Open must tolerate arbitrary journal bytes: %v", err)
		}
		defer jl.Close()
		m := NewManager(Config{Journal: jl})
		if _, err := m.Recover(); err != nil {
			t.Fatalf("Recover must degrade, not fail: %v", err)
		}
		for _, name := range m.Slots() {
			ctx, pkt := packet(0)
			_, _, _ = m.Serve(name, ctx, pkt) // must not panic
		}
	})
}

// TestJournalCompaction: CompactEvery bounds journal growth and the
// compacted snapshot alone still recovers the full state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := openJournal(t, dir)
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, Journal: jl, CompactEvery: 3})
	if err := m.Deploy("s", progSource(countProg("v1"), nil)); err != nil {
		t.Fatal(err)
	}
	for gen := 2; gen <= 5; gen++ {
		if err := m.Deploy("s", progSource(countProg("vN"), nil)); err != nil {
			t.Fatal(err)
		}
		serveClean(t, m, "s", 2)
		if err := m.Promote("s", false); err != nil {
			t.Fatal(err)
		}
	}
	if n := jl.Records(); n >= 3+1 {
		t.Fatalf("journal holds %d records after compaction threshold 3", n)
	}
	if _, ok := jl.Snapshot(); !ok {
		t.Fatal("no snapshot written despite passing CompactEvery repeatedly")
	}
	served := uint64(0)
	if st, err := m.StatusOf("s"); err == nil {
		served = st.Served
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2 := openJournal(t, dir)
	defer jl2.Close()
	m2 := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, Journal: jl2, CompactEvery: 3})
	rs, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Slots != 1 {
		t.Fatalf("recover stats %s: want the slot back from snapshot+journal", rs)
	}
	st, _ := m2.StatusOf("s")
	if st.LiveGeneration != 5 || st.Served != served {
		t.Fatalf("recovered status %s: want live gen 5, served=%d", st, served)
	}
	serveClean(t, m2, "s", 1)
}

// TestCanaryFractionRouting: with CanaryFraction set, a deterministic
// hash-based share of live packets is answered by the canary — counted per
// slot — while divergence demotes the candidate exactly as without routing.
func TestCanaryFractionRouting(t *testing.T) {
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1 << 30})
	opts := DeployOptions{CanaryFraction: 0.5}
	if err := m.DeployWith("s", progSource(goodProg(), nil), opts); err != nil {
		t.Fatal(err)
	}
	if err := m.DeployWith("s", progSource(goodProg(), nil), opts); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 1) // clears shadow; candidate now in canary

	total, wantRouted := 200, 0
	for i := 0; i < total; i++ {
		pkt := make([]byte, 64)
		binary.LittleEndian.PutUint64(pkt, uint64(i)*0x9e3779b97f4a7c15)
		ctx := vm.BuildXDPContext(len(pkt))
		if routeHash(ctx, pkt) < opts.CanaryFraction {
			wantRouted++
		}
		rv, _, err := m.Serve("s", ctx, pkt)
		if err != nil || rv != 2 {
			t.Fatalf("serve %d: rv=%d err=%v", i, rv, err)
		}
	}
	if wantRouted == 0 || wantRouted == total {
		t.Fatalf("hash routed %d/%d packets; expected a non-degenerate split", wantRouted, total)
	}
	st, _ := m.StatusOf("s")
	if st.CanaryRouted != uint64(wantRouted) {
		t.Fatalf("CanaryRouted = %d, want %d (deterministic hash share)", st.CanaryRouted, wantRouted)
	}

	// Without a fraction, nothing is ever routed.
	m0 := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1 << 30})
	if err := m0.Deploy("z", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	if err := m0.Deploy("z", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m0, "z", 50)
	st, _ = m0.StatusOf("z")
	if st.CanaryRouted != 0 {
		t.Fatalf("CanaryRouted = %d without CanaryFraction, want 0", st.CanaryRouted)
	}
}

// TestCanaryRoutingNeverBypassesGates: even at CanaryFraction 1.0 a
// diverging canary is demoted and the incumbent's verdict is the one served
// — routing decides whose answer wins only after every gate has passed.
func TestCanaryRoutingNeverBypassesGates(t *testing.T) {
	cond := &ebpf.Program{Name: "cond", Hook: ebpf.HookXDP, Insns: []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R7, ebpf.R6, 0),
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.JumpImm(ebpf.JumpNE, ebpf.R7, 0x55, 1),
		ebpf.Mov64Imm(ebpf.R0, 1), // diverge on pkt[0] == 0x55
		ebpf.Exit(),
	}}
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1 << 30})
	opts := DeployOptions{CanaryFraction: 1.0}
	if err := m.DeployWith("s", progSource(goodProg(), nil), opts); err != nil {
		t.Fatal(err)
	}
	if err := m.DeployWith("s", progSource(cond, nil), opts); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "s", 3) // shadow + some routed canary serves on clean packets
	st, _ := m.StatusOf("s")
	if st.CanaryRouted == 0 {
		t.Fatal("fraction 1.0 routed nothing")
	}

	ctx, pkt := packet(0x55) // divergent input
	rv, _, err := m.Serve("s", ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if rv != 2 {
		t.Fatalf("diverging canary's verdict was served: rv=%d, want incumbent 2", rv)
	}
	if _, ok := findEvent(m.Events("s"), EventRejected); !ok {
		t.Fatalf("diverging canary not demoted; events: %v", eventKinds(m.Events("s")))
	}
	st, _ = m.StatusOf("s")
	if st.CandidateGeneration != 0 {
		t.Fatalf("status %s: candidate must be gone after divergence", st)
	}
}

// TestServeSteadyStateZeroAlloc pins the zero-copy mirroring guarantee: once
// the slot's scratch buffers are warm, a mirrored Serve allocates nothing.
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	m := NewManager(Config{ShadowRuns: 1 << 30})
	if err := m.Deploy("s", progSource(goodProg(), goodProg())); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	ctx, pkt := packet(0)
	for i := 0; i < 4; i++ { // warm: staged→shadow transition + scratch growth
		if _, _, err := m.Serve("s", ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := m.Serve("s", ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("mirrored steady-state Serve allocates %v per run, want 0", n)
	}
}
