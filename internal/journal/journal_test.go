package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload"), {0, 1, 2, 0xff}}
	for i, r := range recs {
		if err := l.Append(r, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, no corruption.
	l2 := mustOpen(t, dir)
	defer l2.Close()
	if st := l2.Stats(); st.Records != len(recs) || st.CorruptRecords != 0 {
		t.Fatalf("reopen stats = %+v, want %d records, 0 corrupt", st, len(recs))
	}
	got = replayAll(t, l2)
	if len(got) != len(recs) {
		t.Fatalf("replay after reopen: %d records, want %d", len(got), len(recs))
	}
	// Appends after reopen land on a clean boundary.
	if err := l2.Append([]byte("post-reopen"), true); err != nil {
		t.Fatal(err)
	}
	if got = replayAll(t, l2); len(got) != len(recs)+1 {
		t.Fatalf("after post-reopen append: %d records, want %d", len(got), len(recs)+1)
	}
}

// TestTornTailSweep is the crash-injection core: truncate the journal at
// every possible byte length and prove Open always succeeds, recovers every
// record before the cut, and reports damage iff the cut fell mid-record. The
// records are written once by single appends and once as one AppendBatch: a
// batch torn at any byte must recover exactly like the appends it replaces —
// a whole-record prefix, never a partial batch that hides its intact head.
func TestTornTailSweep(t *testing.T) {
	t.Run("append", func(t *testing.T) { tornTailSweep(t, false) })
	t.Run("batch", func(t *testing.T) { tornTailSweep(t, true) })
}

func tornTailSweep(t *testing.T, batch bool) {
	base := t.TempDir()
	seed := filepath.Join(base, "seed")
	l := mustOpen(t, seed)
	recs := [][]byte{[]byte("one"), []byte("two-longer"), []byte("three")}
	boundaries := map[int64]int{0: 0} // valid prefix length → record count
	var total int64
	for i, r := range recs {
		if !batch {
			if err := l.Append(r, false); err != nil {
				t.Fatal(err)
			}
		}
		total += headerSize + int64(len(r))
		boundaries[total] = i + 1
	}
	if batch {
		if err := l.AppendBatch(recs, false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	blob, err := os.ReadFile(filepath.Join(seed, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != total {
		t.Fatalf("journal is %d bytes, want %d", len(blob), total)
	}

	for cut := int64(0); cut <= total; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lc, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: Open failed: %v", cut, err)
		}
		wantRecs := 0
		wantCorrupt := 1
		// Walk back to the last record boundary at or before the cut.
		for b, n := range boundaries {
			if b <= cut && n > wantRecs {
				wantRecs = n
			}
		}
		if _, atBoundary := boundaries[cut]; atBoundary {
			wantCorrupt = 0
		}
		st := lc.Stats()
		if st.Records != wantRecs || st.CorruptRecords != wantCorrupt {
			t.Errorf("cut at %d: stats %+v, want %d records / %d corrupt",
				cut, st, wantRecs, wantCorrupt)
		}
		if got := replayAll(t, lc); len(got) != wantRecs {
			t.Errorf("cut at %d: replayed %d records, want %d", cut, len(got), wantRecs)
		}
		// The log must be append-ready: a new record replays after the
		// surviving prefix.
		if err := lc.Append([]byte("fresh"), false); err != nil {
			t.Errorf("cut at %d: append after repair: %v", cut, err)
		}
		if got := replayAll(t, lc); len(got) != wantRecs+1 ||
			!bytes.Equal(got[len(got)-1], []byte("fresh")) {
			t.Errorf("cut at %d: post-repair replay wrong: %d records", cut, len(got))
		}
		lc.Close()
	}
}

// TestBitFlipTail proves in-place corruption (not just truncation) of the
// last record is detected and discarded without losing earlier records.
func TestBitFlipTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Append([]byte("keep me"), false); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("flip me"), false); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, journalName)
	blob, _ := os.ReadFile(path)
	blob[len(blob)-1] ^= 0x40
	os.WriteFile(path, blob, 0o644)

	l2 := mustOpen(t, dir)
	defer l2.Close()
	st := l2.Stats()
	if st.Records != 1 || st.CorruptRecords != 1 {
		t.Fatalf("stats = %+v, want 1 record / 1 corrupt", st)
	}
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0]) != "keep me" {
		t.Fatalf("replay = %q, want [keep me]", got)
	}
}

func TestHugeLengthPrefixIsCorruptNotOOM(t *testing.T) {
	dir := t.TempDir()
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31) // absurd length
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir)
	defer l.Close()
	if st := l.Stats(); st.Records != 0 || st.CorruptRecords != 1 {
		t.Fatalf("stats = %+v, want 0 records / 1 corrupt", st)
	}
}

func TestSnapshotCompactCycle(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if _, ok := l.Snapshot(); ok {
		t.Fatal("fresh dir reports a snapshot")
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact([]byte("state-v1")); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 || l.Size() != 0 {
		t.Fatalf("journal not reset after compact: %d records, %d bytes", l.Records(), l.Size())
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("journal still replays %d records after compact", len(got))
	}
	snap, ok := l.Snapshot()
	if !ok || string(snap) != "state-v1" {
		t.Fatalf("snapshot = %q, %v; want state-v1", snap, ok)
	}
	// Post-compact appends accumulate on the fresh journal.
	if err := l.Append([]byte("delta"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := mustOpen(t, dir)
	defer l2.Close()
	snap, ok = l2.Snapshot()
	if !ok || string(snap) != "state-v1" {
		t.Fatalf("snapshot after reopen = %q, %v", snap, ok)
	}
	if got := replayAll(t, l2); len(got) != 1 || string(got[0]) != "delta" {
		t.Fatalf("journal after reopen = %q, want [delta]", got)
	}
}

func TestCorruptSnapshotDegradesToNone(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Compact([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, snapshotName)
	blob, _ := os.ReadFile(path)
	blob[headerSize] ^= 0xff // corrupt the payload under the CRC
	os.WriteFile(path, blob, 0o644)

	l2 := mustOpen(t, dir)
	defer l2.Close()
	if _, ok := l2.Snapshot(); ok {
		t.Fatal("corrupt snapshot accepted")
	}
	if st := l2.Stats(); st.CorruptRecords != 1 {
		t.Fatalf("corrupt snapshot not counted: %+v", st)
	}
}

func TestLeftoverSnapshotTmpIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Compact([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a compaction that crashed after writing the temp file but
	// before the rename: the committed snapshot must win.
	if err := os.WriteFile(filepath.Join(dir, snapshotTmp), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir)
	defer l2.Close()
	snap, ok := l2.Snapshot()
	if !ok || string(snap) != "committed" {
		t.Fatalf("snapshot = %q, %v; want committed", snap, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
		t.Fatalf("snapshot.tmp not cleaned up: %v", err)
	}
}

// FuzzOpenReplay feeds arbitrary bytes as a journal file and requires that
// Open + Replay never panic, never error, and only ever yield records whose
// checksums genuinely match.
func FuzzOpenReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	good := make([]byte, headerSize+3)
	binary.LittleEndian.PutUint32(good[0:4], 3)
	binary.LittleEndian.PutUint32(good[4:8], Checksum([]byte("abc")))
	copy(good[headerSize:], "abc")
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), blob, 0o644); err != nil {
			t.Skip()
		}
		// Arbitrary snapshot garbage too: Snapshot must degrade, not fail.
		if len(blob) > 4 {
			os.WriteFile(filepath.Join(dir, snapshotName), blob[4:], 0o644)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on fuzzed bytes: %v", err)
		}
		defer l.Close()
		l.Snapshot()
		n := 0
		if err := l.Replay(func(p []byte) error { n++; return nil }); err != nil {
			t.Fatalf("Replay on fuzzed bytes: %v", err)
		}
		if st := l.Stats(); n != st.Records {
			t.Fatalf("replayed %d records but stats say %d", n, st.Records)
		}
		// The repaired log must accept appends.
		if err := l.Append([]byte("x"), false); err != nil {
			t.Fatalf("append after fuzzed open: %v", err)
		}
	})
}
