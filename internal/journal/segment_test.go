package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"merlin/internal/chaos"
)

// openSmall opens dir with a tiny rotation threshold so a handful of appends
// spans several segments.
func openSmall(t *testing.T, dir string, o Options) *Log {
	t.Helper()
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64
	}
	l, err := OpenWith(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

// TestSegmentRotation: appends past the threshold split the log into bounded
// segment files, and both Replay and a fresh Open see every record in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation happened: %+v", st)
	}
	segs := l.Segments()
	if segs[0] != "journal.log" {
		t.Fatalf("base segment missing: %v", segs)
	}
	for _, name := range segs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("segment %s: %v", name, err)
		}
		// Only the active (last) segment may still be under the threshold;
		// retired ones must be bounded: they stopped growing at or just past
		// the threshold plus one record.
		if fi.Size() > 64+int64(headerSize+len(payloadN(0))) {
			t.Fatalf("segment %s grew unbounded: %d bytes", name, fi.Size())
		}
	}
	var got []string
	if err := l.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != n || got[0] != "record-0000" || got[n-1] != fmt.Sprintf("record-%04d", n-1) {
		t.Fatalf("replay across segments = %d records %v", len(got), got)
	}
	// Appends must still land after a replay repositioned the active handle.
	if err := l.Append([]byte("after-replay"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openSmall(t, dir, Options{})
	defer l2.Close()
	if l2.Records() != n+1 {
		t.Fatalf("reopen found %d records, want %d (stats %+v)", l2.Records(), n+1, l2.Stats())
	}
}

// TestCompactRetiresSegments: Compact folds a multi-segment journal into the
// snapshot and returns to a single empty base segment.
func TestCompactRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := l.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact([]byte("the-snapshot")); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 || l.Size() != 0 {
		t.Fatalf("after compact: records=%d size=%d", l.Records(), l.Size())
	}
	if segs := l.Segments(); len(segs) != 1 || segs[0] != "journal.log" {
		t.Fatalf("segments after compact = %v, want just journal.log", segs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok && n != 0 {
			t.Fatalf("retired segment %s not removed", e.Name())
		}
	}
	l.Close()

	l2 := openSmall(t, dir, Options{})
	defer l2.Close()
	if snap, ok := l2.Snapshot(); !ok || string(snap) != "the-snapshot" {
		t.Fatalf("snapshot = %q, %v", snap, ok)
	}
	if l2.Records() != 0 {
		t.Fatalf("journal not empty after compact+reopen: %d", l2.Records())
	}
}

// syncFS models what a power cut keeps: each file's size at its last
// successful Sync. Bytes past that mark are written but not yet durable.
type syncFS struct {
	chaos.FS
	mu      sync.Mutex
	durable map[string]int64 // base name -> size at the last successful Sync
}

func newSyncFS(inner chaos.FS) *syncFS { return &syncFS{FS: inner, durable: map[string]int64{}} }

func (s *syncFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: s, name: filepath.Base(name)}, nil
}

type syncFile struct {
	chaos.File
	fs   *syncFS
	name string
}

func (f *syncFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	if fi, err := f.File.Stat(); err == nil {
		f.fs.mu.Lock()
		f.fs.durable[f.name] = fi.Size()
		f.fs.mu.Unlock()
	}
	return nil
}

// unsynced returns how many bytes of segment name a power cut could lose.
func (s *syncFS) unsynced(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(fi.Size()-s.durable[name], 0)
}

// TestAsyncPolicy: unforced records stay written-but-unsynced until a
// barrier, and every barrier — a forced append, Sync, rotation, Compact,
// Close — leaves nothing unsynced behind it.
func TestAsyncPolicy(t *testing.T) {
	dir := t.TempDir()
	fs := newSyncFS(chaos.OS())
	l := openSmall(t, dir, Options{FS: fs, SegmentBytes: 1 << 20})
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := l.Append(payloadN(i), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	settled := func(barrier string) {
		t.Helper()
		for _, name := range l.Segments() {
			if n := fs.unsynced(t, dir, name); n != 0 {
				t.Fatalf("after %s: %d bytes of %s unsynced", barrier, n, name)
			}
		}
	}

	appendN(50)
	if st := l.Stats(); st.Fsyncs != 0 || fs.unsynced(t, dir, "journal.log") == 0 {
		t.Fatalf("unforced appends fsynced without a barrier: %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	settled("Sync")
	if st := l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("Sync barrier: %+v", st)
	}

	appendN(5)
	if err := l.Append([]byte("forced"), true); err != nil {
		t.Fatal(err)
	}
	settled("a forced append")
	if st := l.Stats(); st.Fsyncs != 2 || st.ForcedFsyncs != 1 {
		t.Fatalf("forced append after unforced ones: %+v, want one fsync for all", st)
	}

	appendN(5)
	if err := l.Compact([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	settled("Compact")

	appendN(5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	settled("Close")
	if st := l.Stats(); st.Fsyncs != 3 || st.Appends != 66 {
		t.Fatalf("Close barrier: %+v", st)
	}

	// Rotation is a barrier for the segment it retires.
	fs = newSyncFS(chaos.OS())
	l = openSmall(t, t.TempDir(), Options{FS: fs})
	dir = l.Dir()
	appendN(20)
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("no rotation: %v", segs)
	}
	for _, name := range segs[:len(segs)-1] {
		if n := fs.unsynced(t, dir, name); n != 0 {
			t.Fatalf("rotation retired %s with %d bytes unsynced", name, n)
		}
	}
	if st := l.Stats(); st.Fsyncs != st.Rotations {
		t.Fatalf("want one fsync per rotation of a dirty segment: %+v", st)
	}
	l.Close()
}

// TestFailedForcedFsyncIsRetried: a forced append whose fsync fails returns
// the error, and its bytes stay counted as unsynced, so the next Sync,
// rotation or Close fsyncs them.
func TestFailedForcedFsyncIsRetried(t *testing.T) {
	for _, barrier := range []string{"sync", "rotation", "close"} {
		t.Run(barrier, func(t *testing.T) {
			dir := t.TempDir()
			fs := newSyncFS(chaos.Wrap(chaos.OS(), chaos.NewSchedule(
				chaos.Step{Op: chaos.OpSync, Fault: chaos.EIO},
			)))
			// 16-byte segments: the forced record alone fills the base one.
			l := openSmall(t, dir, Options{FS: fs, SegmentBytes: 16})
			defer l.Close()
			if err := l.Append([]byte("forced-record"), true); err == nil {
				t.Fatal("forced append hid its failed fsync")
			}
			if st := l.Stats(); st.FsyncErrors != 1 || st.Fsyncs != 0 || fs.unsynced(t, dir, "journal.log") == 0 {
				t.Fatalf("the injected fsync failure did not land: %+v", st)
			}
			switch barrier {
			case "sync":
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			case "rotation":
				if err := l.Append([]byte("next"), false); err != nil {
					t.Fatal(err)
				}
				if st := l.Stats(); st.Rotations != 1 {
					t.Fatalf("the second append did not rotate: %+v", st)
				}
			case "close":
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if n := fs.unsynced(t, dir, "journal.log"); n != 0 {
				t.Fatalf("%s left %d bytes of the failed forced append unsynced", barrier, n)
			}
		})
	}
}

// TestTornAppendRollsBack: a torn write — one record or a whole batch — is
// rolled back to the last record boundary, later appends land cleanly, and a
// reopen sees no corruption and no part of the torn batch.
func TestTornAppendRollsBack(t *testing.T) {
	for _, batch := range []bool{false, true} {
		dir := t.TempDir()
		inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(
			chaos.Step{Op: chaos.OpWrite, Skip: 2, Fault: chaos.Torn},
		))
		l := openSmall(t, dir, Options{FS: inj, SegmentBytes: 1 << 20})
		for i := 0; i < 2; i++ {
			if err := l.Append(payloadN(i), true); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if batch {
			// Half the buffer lands: the first record whole, the second cut.
			err = l.AppendBatch([][]byte{[]byte("torn-batch-head"), []byte("torn-batch-tail")}, false)
		} else {
			err = l.Append([]byte("this-one-tears"), false)
		}
		if err == nil {
			t.Fatal("torn append reported success")
		}
		if st := l.Stats(); st.WedgeRepairs != 1 || st.Appends != 2 {
			t.Fatalf("torn append not rolled back: %+v", st)
		}
		if err := l.Append([]byte("after-the-tear"), true); err != nil {
			t.Fatalf("append after rollback: %v", err)
		}
		l.Close()

		l2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := l2.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || got[2] != "after-the-tear" {
			t.Fatalf("batch=%v: records after torn append = %v", batch, got)
		}
		if st := l2.Stats(); st.CorruptRecords != 0 {
			t.Fatalf("rollback left corruption for reopen to find: %+v", st)
		}
		l2.Close()
	}
}

// TestAppendBatchSyncsOncePerBatch: a batch is one write and, when forced,
// one fsync however many records it frames, while every count a caller can
// observe (records, appends) moves per record.
func TestAppendBatchSyncsOncePerBatch(t *testing.T) {
	recs := make([][]byte, 10)
	for i := range recs {
		recs[i] = payloadN(i)
	}
	l := openSmall(t, t.TempDir(), Options{SegmentBytes: 1 << 20})
	defer l.Close()
	if err := l.AppendBatch(recs, false); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil, true); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 0 || st.Appends != 10 {
		t.Fatalf("unforced batch: %+v, want 0 fsyncs before a barrier for 10 appended records", st)
	}
	if err := l.AppendBatch(recs, true); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.ForcedFsyncs != 1 || st.Appends != 20 {
		t.Fatalf("forced batch: %+v, want 1 fsync for 10 more appended records", st)
	}
	if got := replayAll(t, l); len(got) != 20 || string(got[19]) != string(recs[9]) {
		t.Fatalf("batches replayed as %d records", len(got))
	}
}

// TestReadFaultDoesNotTruncate: an injected read error during Open must
// surface as an error — never be mistaken for a torn tail and destroy good
// records.
func TestReadFaultDoesNotTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(payloadN(i), true); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	before, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(
		chaos.Step{Op: chaos.OpRead, Skip: 1, Fault: chaos.EIO},
	))
	if _, err := OpenWith(dir, Options{FS: inj}); err == nil {
		t.Fatal("Open swallowed a real read fault")
	}
	after, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("read fault triggered destructive truncation: %d -> %d bytes", len(before), len(after))
	}
	// And without faults everything is still there.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 5 {
		t.Fatalf("records after faulty open attempt = %d, want 5", l2.Records())
	}
}

// TestMissingMiddleSegment: a lost middle segment is counted loudly and the
// survivors still replay.
func TestMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := l.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v", segs)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, segs[1])); err != nil {
		t.Fatal(err)
	}

	l2 := openSmall(t, dir, Options{})
	defer l2.Close()
	st := l2.Stats()
	if st.CorruptRecords == 0 {
		t.Fatalf("missing middle segment not reported: %+v", st)
	}
	var got []string
	if err := l2.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= 20 {
		t.Fatalf("replay after losing a segment = %d records", len(got))
	}
	if got[0] != "record-0000" {
		t.Fatalf("first surviving record = %q", got[0])
	}
}

// TestTornTailInRetiredSegment: damage at a segment boundary (the tail of a
// non-active segment) is counted, skipped, and never truncated — retired
// segments are read-only.
func TestTornTailInRetiredSegment(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := l.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v", segs)
	}
	l.Close()

	victim := filepath.Join(dir, segs[1])
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x07, 0x00, 0x00, 0x00}) // torn header at the boundary
	f.Close()
	fi, _ := os.Stat(victim)
	sizeBefore := fi.Size()

	l2 := openSmall(t, dir, Options{})
	defer l2.Close()
	st := l2.Stats()
	if st.CorruptRecords != 1 || st.TruncatedBytes != 4 {
		t.Fatalf("boundary damage accounting: %+v", st)
	}
	if fi, _ := os.Stat(victim); fi.Size() != sizeBefore {
		t.Fatalf("retired segment was truncated: %d -> %d", sizeBefore, fi.Size())
	}
	var got int
	l2.Replay(func([]byte) error { got++; return nil })
	if got != 20 {
		t.Fatalf("replay = %d records, want all 20 (boundary garbage skipped)", got)
	}
}

// TestCompactSoftErrorsCounted: best-effort fsync failures during Compact
// are counted, not silently discarded, and the compaction still commits.
func TestCompactSoftErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(
		chaos.Step{Op: chaos.OpSync, Fault: chaos.EIO}, // snapshot.tmp fsync
	))
	l := openSmall(t, dir, Options{FS: inj, SegmentBytes: 1 << 20})
	defer l.Close()
	if err := l.Append([]byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte("snap")); err != nil {
		t.Fatalf("soft fsync failure must not fail Compact: %v", err)
	}
	if st := l.Stats(); st.CompactSoftErrors == 0 {
		t.Fatalf("swallowed tf.Sync error not counted: %+v", st)
	}
	if snap, ok := l.Snapshot(); !ok || string(snap) != "snap" {
		t.Fatalf("snapshot lost: %q %v", snap, ok)
	}
}

// TestRotationSkipsStaleSegment: a leftover future-numbered segment from an
// interrupted compaction is never appended into.
func TestRotationSkipsStaleSegment(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, Options{})
	if err := l.Append([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), false); err != nil {
		t.Fatal(err)
	}
	// Plant a stale journal.000001 as if an interrupted rotation/compaction
	// left it behind after the lock was re-acquired.
	stale := filepath.Join(dir, "journal.000001")
	if err := os.WriteFile(stale, frame([]byte("stale-old-record")), 0o644); err != nil {
		t.Fatal(err)
	}
	// Next append rotates (size >= 64); it must skip the stale file.
	if err := l.Append([]byte("fresh"), false); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if segs[len(segs)-1] != "journal.000002" {
		t.Fatalf("rotation did not skip the stale segment: %v", segs)
	}
	got, err := os.ReadFile(stale)
	if err != nil || string(got[headerSize:]) != "stale-old-record" {
		t.Fatalf("stale segment was modified: %q %v", got, err)
	}
	l.Close()
}

// TestErrLockedSentinel: the contention error matches ErrLocked so callers
// can fail fast on double-daemon instead of degrading.
func TestErrLockedSentinel(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = Open(dir)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
}

// TestChaosRateSurvival: under a seeded ~5% fault rate the journal never
// panics, and whatever survives on disk reopens clean.
func TestChaosRateSurvival(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		inj := chaos.Wrap(chaos.OS(), chaos.NewRate(seed, 0.05, chaos.EIO, chaos.ENOSPC, chaos.Torn))
		inj.SlowDelay = 0
		l, err := OpenWith(dir, Options{FS: inj, SegmentBytes: 256})
		if err != nil {
			continue // open itself faulted; nothing on disk to check
		}
		for i := 0; i < 200; i++ {
			_ = l.Append(payloadN(i), i%10 == 0)
			if i == 100 {
				_ = l.Compact([]byte("mid-soak-snapshot"))
			}
		}
		l.Close()

		l2, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen after chaos failed: %v", seed, err)
		}
		if err := l2.Replay(func(p []byte) error { return nil }); err != nil {
			t.Fatalf("seed %d: replay after chaos: %v", seed, err)
		}
		l2.Close()
	}
}
