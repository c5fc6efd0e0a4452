package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"merlin/internal/journal"
)

// pinnedControllerSession runs the scripted session whose files
// TestControllerJournalDigestsPinned pins: three workers join, pass:0 is
// bootstrapped and pass:8 rolled out (one replica, so the snapshot holds
// one installed record and its bytes do not depend on map order), then w3
// leaves. CompactEvery 6 puts a compaction in the middle.
func pinnedControllerSession(t *testing.T, dir string) {
	t.Helper()
	jl, err := journal.OpenWith(dir, journal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lt := NewLocalTransport()
	for _, name := range []string{"w1", "w2", "w3"} {
		lt.AddWorker(name, testWorkerConfig())
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c := New(Config{Seed: 42, TrafficBatch: 4, Replication: 1, CompactEvery: 6,
		RPCTimeout: time.Second, RetryBase: time.Millisecond, BreakerBase: 5 * time.Millisecond,
		Now: clk.Now}, lt)
	c.AttachJournal(jl)
	for _, name := range []string{"w1", "w2", "w3"} {
		if err := c.Join(name, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"pass:0", "pass:8"} {
		if r := runRollout(t, c, "s", src); r.Phase != PhaseDone {
			t.Fatalf("rollout %s = %+v", src, r)
		}
	}
	if err := c.Leave("w3"); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerJournalDigestsPinned: the scripted session writes the same
// journal and snapshot bytes the controller wrote before the shared
// journal.Ledger existed. testdata/candgen-rollout pins the older format.
func TestControllerJournalDigestsPinned(t *testing.T) {
	dir := t.TempDir()
	pinnedControllerSession(t, dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range ents {
		if e.Name() == "journal.lock" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	for name, want := range pinnedControllerDigests {
		if got[name] != want {
			t.Errorf("%s sha256 %s, want %s", name, got[name], want)
		}
	}
	for name, sum := range got {
		if _, ok := pinnedControllerDigests[name]; !ok {
			t.Errorf("unexpected file %s (sha256 %s)", name, sum)
		}
	}
}

// pinnedControllerDigests are the recording build's files for the session.
var pinnedControllerDigests = map[string]string{
	"journal.log": "e0e325b21a4ff2ff449fc4a2dd8fbc63ee0ac3f621f7fd2ad4ba34a951c367c9",
	"snapshot.db": "91de76b9a9c7a67db435dc0f227dd6d98648a8cf3ff53f39349283a58db0bced",
}

// TestSnapshotBytesDeterministic: two controllers driven through the same
// session — three slots, each on two of three workers — write byte-identical
// snapshots, compaction after compaction. The catalog and the installed
// records are written in sorted order, not in map order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	session := func(dir string) *Controller {
		jl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jl.Close() })
		clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
		c, _ := testFleet(t, 3, Config{Replication: 2, Now: clk.Now})
		c.AttachJournal(jl)
		for i, slot := range []string{"alpha", "beta", "gamma"} {
			if r := runRollout(t, c, slot, "pass:"+itoa(4*i)); r.Phase != PhaseDone {
				t.Fatalf("rollout %s = %+v", slot, r)
			}
		}
		return c
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	ctls := []*Controller{session(dirs[0]), session(dirs[1])}
	var first []byte
	for round := 0; round < 4; round++ {
		for i, c := range ctls {
			c.Flush()
			b, err := os.ReadFile(filepath.Join(dirs[i], "snapshot.db"))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = b
			} else if string(b) != string(first) {
				t.Fatalf("controller %d, compaction %d: snapshot differs:\n%s\nvs\n%s", i, round, b, first)
			}
		}
	}
}
