package lifecycle

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"merlin/internal/journal"
)

// buildMultiSegmentState journals a deploy→promote churn with a small
// segment bound so the ledger spans several segment files (no Compact, which
// would fold them back into one). Returns the segment file names in replay
// order: journal.log first, then numbered segments ascending.
func buildMultiSegmentState(t *testing.T, dir string) []string {
	t.Helper()
	jl, err := journal.OpenWith(dir, journal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
	if err := m.Deploy("s", progSource(countProg("v1"), nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Deploy("s", progSource(countProg(fmt.Sprintf("v%d", i+2)), nil)); err != nil {
			t.Fatal(err)
		}
		serveClean(t, m, "s", 2)
		if err := m.Promote("s", false); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(jl.Segments()); n < 3 {
		t.Fatalf("only %d segments; the scenario must rotate to be meaningful", n)
	}
	jl.Close()
	segs, err := journal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// copySegments clones the state dir's journal files (and snapshot, if any)
// into a scratch dir, with segment `name` truncated to cut bytes.
func copySegments(t *testing.T, src, dst string, segs []string, name string, cut int) {
	t.Helper()
	for _, s := range segs {
		raw, err := os.ReadFile(filepath.Join(src, s))
		if err != nil {
			t.Fatal(err)
		}
		if s == name {
			raw = raw[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, s), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snap, err := os.ReadFile(filepath.Join(src, "snapshot.db")); err == nil {
		if err := os.WriteFile(filepath.Join(dst, "snapshot.db"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverAndServe opens dir cold, recovers, and serves one packet through
// every surviving slot. Any error or panic fails the test.
func recoverAndServe(t *testing.T, dir, what string) RecoverStats {
	t.Helper()
	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("%s: Open: %v", what, err)
	}
	defer jl.Close()
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
	rs, err := m.Recover()
	if err != nil {
		t.Fatalf("%s: Recover: %v", what, err)
	}
	for _, name := range m.Slots() {
		ctx, pkt := packet(1)
		if _, _, err := m.Serve(name, ctx, pkt); err != nil {
			t.Fatalf("%s: recovered slot %s cannot serve: %v", what, name, err)
		}
	}
	return rs
}

// TestRecoverMultiSegmentTruncationSweep extends the crash-injection sweep
// across segment boundaries: every segment of a multi-segment ledger is cut
// at nine evenly spaced offsets and at every record boundary and the byte
// either side of it — including length 0, i.e. a tear exactly at the
// rotation point. Each cut is recovered twice: as the crash prefix (later
// segments gone), which must recover a serving manager, and as a torn
// retired segment with every later segment back in place, which must keep
// the slot — records are idempotent full-state upserts, so as long as any
// complete slot record survives in any segment, the slot survives (possibly
// older, never corrupt).
func TestRecoverMultiSegmentTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	segs := buildMultiSegmentState(t, dir)
	err := journal.SweepPrefixes(dir, 9, func(caseDir string, p journal.Prefix) error {
		what := fmt.Sprintf("%s cut at %d/%d", p.Seg, p.Cut, p.Size)
		recoverAndServe(t, caseDir, what+" (crash prefix)")
		copySegments(t, dir, caseDir, segs, p.Seg, int(p.Cut))
		if rs := recoverAndServe(t, caseDir, what); rs.Slots != 1 {
			t.Errorf("%s: slot lost (%s); other segments still held its state", what, rs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMissingMiddleSegment: a whole retired segment vanishing (disk
// repair, fsck quarantine, an over-eager operator) is loud — counted corrupt
// — but replay continues through the surviving segments and the manager
// keeps accepting appends afterwards.
func TestRecoverMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	segs := buildMultiSegmentState(t, dir)
	// Remove a retired middle segment, never the active tail.
	victim := segs[1]
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}

	jl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("Open with missing %s: %v", victim, err)
	}
	defer jl.Close()
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
	rs, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover with missing %s: %v", victim, err)
	}
	if rs.CorruptRecords == 0 {
		t.Errorf("missing segment %s was silent; want it counted corrupt (%s)", victim, rs)
	}
	if rs.Slots != 1 {
		t.Fatalf("slot lost to a missing middle segment (%s)", rs)
	}
	serveClean(t, m, "s", 1)
	// The ledger still accepts new history after the damage.
	if err := m.Deploy("s", progSource(countProg("post-damage"), nil)); err != nil {
		t.Fatalf("deploy after missing-segment recovery: %v", err)
	}
}

// TestRecoverStaleRotationSegment: a crash between "create next segment" and
// "first append" leaves a stale empty (or torn) segment as the
// highest-numbered file. Startup must adopt it as the active tail — empty is
// clean, a torn partial frame is truncated — and appends must land in it.
func TestRecoverStaleRotationSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"torn-frame", []byte{9, 0, 0, 0, 0xde, 0xad}}, // length prefix, no body
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			segs := buildMultiSegmentState(t, dir)
			last := segs[len(segs)-1]
			var n int
			if _, err := fmt.Sscanf(last, "journal.%06d", &n); err != nil {
				t.Fatalf("active segment %q not numbered; scenario did not rotate", last)
			}
			stale := fmt.Sprintf("journal.%06d", n+1)
			if err := os.WriteFile(filepath.Join(dir, stale), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}

			jl, err := journal.Open(dir)
			if err != nil {
				t.Fatalf("Open with stale %s: %v", stale, err)
			}
			defer jl.Close()
			m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
			rs, err := m.Recover()
			if err != nil {
				t.Fatalf("Recover with stale %s: %v", stale, err)
			}
			if rs.Slots != 1 {
				t.Fatalf("slot lost to a stale rotation segment (%s)", rs)
			}
			serveClean(t, m, "s", 1)
			if err := m.Deploy("s", progSource(countProg("after-stale"), nil)); err != nil {
				t.Fatalf("deploy onto stale active segment: %v", err)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(filepath.Join(dir, stale)); err != nil || fi.Size() == 0 {
				t.Errorf("stale segment %s was not adopted as the active tail (err=%v)", stale, err)
			}
		})
	}
}

// FuzzRecoverMultiSegment is FuzzRecover over a two-segment layout with a
// deliberate numbering gap (journal.log + journal.000002): arbitrary bytes
// in both segments and the snapshot must never panic Open, Recover, or
// serving — at worst the ledger degrades to fresh.
func FuzzRecoverMultiSegment(f *testing.F) {
	seedDir := f.TempDir()
	{
		jl, err := journal.OpenWith(seedDir, journal.Options{SegmentBytes: 512})
		if err != nil {
			f.Fatal(err)
		}
		m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, Journal: jl})
		for i := 0; i < 6; i++ {
			_ = m.Deploy("s", progSource(countProg("seed"), nil))
		}
		_ = m.Flush()
		jl.Close()
	}
	names, err := journal.SegmentFiles(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(seedDir, name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	if len(seeds) < 2 {
		f.Fatalf("seed scenario produced %d segments, want >= 2", len(seeds))
	}
	f.Add(seeds[0], seeds[1])
	f.Add(seeds[1], seeds[0][:len(seeds[0])/2])
	f.Add([]byte{}, []byte{})
	f.Add([]byte("not a journal"), []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, base, tail []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"journal.log":    base,
			"journal.000002": tail, // gap: no journal.000001
			"snapshot.db":    tail,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		jl, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("Open must tolerate arbitrary segment bytes: %v", err)
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
