package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"merlin/internal/journal"
)

// The worker's on-disk format is pinned twice. testdata/pinned-state is a
// state dir written by the manager before the shared journal.Ledger existed;
// it must recover to the same stats and status lines. And a scripted session
// under a fixed clock must still write byte-identical journal and snapshot
// files. A change that is meant to move the format must translate old state
// at open, never regenerate these.

// pinClock is the fixed clock every pinned session runs under.
func pinClock() time.Time { return time.Unix(1_700_000_000, 0) }

// stateDigests returns the SHA-256 of every journal segment and snapshot in
// dir, by file name (the lock file is not state).
func stateDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		if e.Name() == "journal.lock" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

func checkDigests(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: %s sha256 %s, want %q", what, n, got[n], want[n])
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: %s missing", what, n)
		}
	}
}

// copyDir copies the regular files of src into a fresh temp dir: Open
// repairs and locks, and testdata must stay as recorded.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoverPinnedStateDir: testdata/pinned-state was recorded with
// CompactEvery 1000, MaxEvents 4 and 1 KiB segments: slots a and b
// deployed, a redeployed through shadow and canary and promoted, an explicit
// Compact, slot c deployed, b removed, slot d deployed while every write
// failed (the journal degraded), a re-attachment probe on the next Tick, and
// a Flush. It holds a snapshot, several segments, a remove tombstone and a
// reattach marker, and must recover to what the recording build reported.
func TestRecoverPinnedStateDir(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "pinned-state"))
	segs, err := journal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("pinned state dir has %d segments", len(segs))
	}
	jl := openJournal(t, dir)
	defer jl.Close()
	m := NewManager(Config{Journal: jl, Now: pinClock, MaxEvents: 4})
	rs, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rs.String(), pinnedRecoverStats; got != want {
		t.Errorf("recover stats:\n got %s\nwant %s", got, want)
	}
	var lines []string
	for _, st := range m.Status() {
		lines = append(lines, st.String())
	}
	if got, want := strings.Join(lines, "\n"), strings.Join(pinnedStatusLines, "\n"); got != want {
		t.Errorf("status lines:\n got %s\nwant %s", got, want)
	}
}

// pinnedRecoverStats and pinnedStatusLines are what the recording build's
// Recover reported for testdata/pinned-state.
var (
	pinnedRecoverStats = "slots=3 deployments=4 replayed=9 snapshot_bytes=3569 corrupt=0 dropped=0 unresolved_sources=0"
	pinnedStatusLines  = []string{
		"slot=a stage=live live=gen2 ni=12 served=5 mirrored=2 eseq=8",
		"slot=c stage=live live=gen1 ni=12 served=2 mirrored=0 eseq=3",
		"slot=d stage=live live=gen1 ni=12 served=0 mirrored=0 eseq=4",
	}
)

// pinnedWorkerSession is the scripted session whose files
// TestWorkerJournalDigestsPinned pins: deploys, a shadow → canary → promote,
// a remove, a Flush, with small segments and a compaction on the way.
func pinnedWorkerSession(t *testing.T, dir string) {
	t.Helper()
	jl, err := journal.OpenWith(dir, journal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{ShadowRuns: 1, CanaryRuns: 1, MaxEvents: 4, CompactEvery: 6,
		Journal: jl, Now: pinClock})
	for _, name := range []string{"a", "b"} {
		if err := m.Deploy(name, progSource(countProg(name), nil)); err != nil {
			t.Fatal(err)
		}
	}
	serveClean(t, m, "a", 3)
	if err := m.Deploy("a", progSource(countProg("a2"), nil)); err != nil {
		t.Fatal(err)
	}
	serveClean(t, m, "a", 2)
	if err := m.Promote("a", false); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy("c", progSource(countProg("c"), nil)); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("b") {
		t.Fatal("remove b")
	}
	serveClean(t, m, "c", 2)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerJournalDigestsPinned: the scripted session writes the same
// bytes the recording build wrote.
func TestWorkerJournalDigestsPinned(t *testing.T) {
	dir := t.TempDir()
	pinnedWorkerSession(t, dir)
	checkDigests(t, "worker session", stateDigests(t, dir), pinnedWorkerDigests)
}

// pinnedWorkerDigests are the recording build's files for the session.
var pinnedWorkerDigests = map[string]string{
	"journal.log":    "30b1c4cd3228867a65472382922df51d9413778d77ca2c3c7eb8764bbb8aa049",
	"journal.000001": "238c244ffece263d37969d80d300567c1492c4d16ae7a928a57d778d083bf92c",
	"journal.000002": "08228c839f5e50e9edcb6491a8e76d32c0223883ba2d6398a4dd264332b437ce",
	"snapshot.db":    "2b7b02615a27e2d1dc0285c8cc96bae139f4d4bf503cb4b05e12f73000b9920c",
}
