package journal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"merlin/internal/buildsvc"
	"merlin/internal/chaos"
	"merlin/internal/ebpf"
	"merlin/internal/journal"
	"merlin/internal/superopt"
)

// The Store suite: the mechanism is tested once, here, against a toy codec
// and against the two codecs the tree ships (superopt's verdicts, buildsvc's
// artifacts) through one table — the codecs' own packages only test what is
// theirs. Keys and values are named by index so the tests do not depend on V.

type store interface {
	PutAs(k, v int)      // one Put of value v under key k
	PutRange(lo, hi int) // one PutAll of value i under key i, lo <= i < hi
	Has(k, v int) (present, equal bool)
	Len() int
	Seq() uint64
	Stale() int
	ExportChunk(since uint64, maxBytes int) ([]byte, uint64, int)
	Export(since uint64) ([]byte, uint64, int, error)
	Merge(blob []byte) (journal.MergeStats, error)
	Flush() error
	Close() error
	LogStats() journal.Stats
	Uncompacted() int
}

type typed[V any] struct {
	*journal.Store[V]
	codec journal.Codec[V]
	gen   func(i int) V
}

func key(i int) string { return fmt.Sprintf("key-%04d", i) }

func (s typed[V]) PutAs(k, v int) { s.Put(key(k), s.gen(v)) }

func (s typed[V]) PutRange(lo, hi int) {
	keys, vs := make([]string, 0, hi-lo), make([]V, 0, hi-lo)
	for i := lo; i < hi; i++ {
		keys, vs = append(keys, key(i)), append(vs, s.gen(i))
	}
	s.PutAll(keys, vs)
}

func (s typed[V]) Has(k, v int) (present, equal bool) {
	got, ok := s.Get(key(k))
	return ok, ok && s.codec.Equal(got, s.gen(v))
}

// harness builds stores over one codec.
type harness struct {
	name  string
	open  func(dir string, o journal.Options, producer string, compactEvery int) (store, error)
	mem   func(producer string) store
	entry func(k, v int) []byte // the codec's bytes for value v under key k
}

func harnessOf[V any](name string, codec journal.Codec[V], gen func(int) V) harness {
	return harness{
		name: name,
		open: func(dir string, o journal.Options, producer string, compactEvery int) (store, error) {
			s, err := journal.OpenStore(dir, o, producer, codec, compactEvery)
			if err != nil {
				return nil, err
			}
			return typed[V]{s, codec, gen}, nil
		},
		mem: func(producer string) store {
			return typed[V]{journal.NewMemStore(producer, codec), codec, gen}
		},
		entry: func(k, v int) []byte { return codec.Encode(key(k), gen(v)) },
	}
}

// toyCodec stores strings as "key NUL value".
type toyCodec struct{}

func (toyCodec) Encode(key, v string) []byte { return []byte(key + "\x00" + v) }
func (toyCodec) Decode(e []byte) (string, string, bool) {
	k, v, ok := strings.Cut(string(e), "\x00")
	return k, v, ok
}
func (toyCodec) Equal(a, b string) bool { return a == b }

var harnesses = []harness{
	harnessOf[string]("toy", toyCodec{}, func(i int) string { return fmt.Sprintf("value-%d", i) }),
	harnessOf[superopt.Verdict]("verdict", superopt.VerdictCodec{}, func(i int) superopt.Verdict {
		if i%3 == 0 {
			return superopt.Verdict{}
		}
		return superopt.Verdict{Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, int32(i))}}
	}),
	harnessOf[buildsvc.Artifact]("artifact", buildsvc.ArtifactCodec{}, func(i int) buildsvc.Artifact {
		return buildsvc.Artifact{
			Prog: &ebpf.Program{Name: "p", Hook: ebpf.HookXDP, MCPU: 2,
				Insns: []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, int32(i)), ebpf.Exit()}},
			Stats: buildsvc.ArtifactStats{Insns: 2, BaselineInsns: 2 + i, FellBack: "none"},
		}
	}),
}

func forEachCodec(t *testing.T, f func(t *testing.T, h harness)) {
	for _, h := range harnesses {
		t.Run(h.name, func(t *testing.T) { f(t, h) })
	}
}

const producer = "suite/1"

func mustOpen(t *testing.T, h harness, dir string, o journal.Options, compactEvery int) store {
	t.Helper()
	s, err := h.open(dir, o, producer, compactEvery)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wantRange requires key i -> value i for lo <= i < hi.
func wantRange(t *testing.T, s store, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if present, equal := s.Has(i, i); !present || !equal {
			t.Fatalf("%s: present=%v intact=%v", key(i), present, equal)
		}
	}
}

// blobOf hand-builds a blob: the producer, then the entries, each framed as a
// journal record.
func blobOf(producer string, entries ...[]byte) []byte {
	b := journal.AppendFrame(nil, []byte(producer))
	for _, e := range entries {
		b = journal.AppendFrame(b, e)
	}
	return b
}

// TestStoreBatchIsOneWriteOneSync: however many entries a PutAll or a Merge
// adds, they reach the journal as one write and one sync, because the store
// forces each batch — each still its own record, each counted towards
// compaction.
func TestStoreBatchIsOneWriteOneSync(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule())
		s := mustOpen(t, h, t.TempDir(), journal.Options{FS: inj}, 1000)
		defer s.Close()
		step := func(what string, wantRecords int, f func()) {
			t.Helper()
			before, recs := inj.Stats(), s.LogStats().Appends
			f()
			after := inj.Stats()
			writes := after.Ops[chaos.OpWrite] - before.Ops[chaos.OpWrite]
			syncs := after.Ops[chaos.OpSync] - before.Ops[chaos.OpSync]
			want := 1
			if wantRecords == 0 {
				want = 0
			}
			if writes != want || syncs != want {
				t.Errorf("%s: %d writes and %d syncs, want %d of each", what, writes, syncs, want)
			}
			if got := s.LogStats().Appends - recs; got != wantRecords {
				t.Errorf("%s: %d journal records, want %d", what, got, wantRecords)
			}
		}
		step("PutAll of 10", 10, func() { s.PutRange(0, 10) })
		if s.Uncompacted() != 10 {
			t.Errorf("compaction accounting counted %d, want the 10 records", s.Uncompacted())
		}
		remote := h.mem(producer)
		remote.PutRange(5, 25)
		blob, _, _, _ := remote.Export(0)
		step("Merge of 15 new, 5 known", 15, func() {
			if st, err := s.Merge(blob); err != nil || st.Added != 15 || st.Known != 5 {
				t.Errorf("merge = %+v, %v", st, err)
			}
		})
		step("Merge of nothing new", 0, func() {
			if st, err := s.Merge(blob); err != nil || st.Added != 0 || st.Known != 20 {
				t.Errorf("re-merge = %+v, %v", st, err)
			}
		})
		if s.Uncompacted() != 25 {
			t.Errorf("compaction accounting counted %d, want 25", s.Uncompacted())
		}
		wantRange(t, s, 0, 25)
	})
}

// TestStorePutAllCompactionCountsRecords: the compaction threshold is reached
// by records, however few batches carried them.
func TestStorePutAllCompactionCountsRecords(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		const every = 16
		s := mustOpen(t, h, t.TempDir(), journal.Options{}, every)
		defer s.Close()
		s.PutRange(0, every-1)
		if s.Uncompacted() != every-1 || s.LogStats().SnapshotBytes != 0 {
			t.Fatalf("one batch below the threshold: appended=%d stats=%+v", s.Uncompacted(), s.LogStats())
		}
		s.PutRange(every-2, every) // a known key is not a record
		if s.Uncompacted() != 0 || s.LogStats().SnapshotBytes == 0 {
			t.Fatalf("crossing the threshold by records did not compact: appended=%d", s.Uncompacted())
		}
		if s.Len() != every {
			t.Fatalf("store holds %d entries, want %d", s.Len(), every)
		}
	})
}

// TestStoreMergeWhileCompacting is the -race regression for the
// quiesced-store assumption a single-mutex compaction would make: concurrent
// Put-driven compactions, Merges, Exports, Gets and Flushes on one persistent
// store must be data-race free and lose nothing.
func TestStoreMergeWhileCompacting(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		const every, shared = 32, 1000 // shared: first index of the remote key space
		dir := t.TempDir()
		s := mustOpen(t, h, dir, journal.Options{}, every)
		remote := h.mem(producer)
		remote.PutRange(shared, shared+100)
		blob, _, _, _ := remote.Export(0)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // enough Puts to trip the threshold several times
			defer wg.Done()
			for i := 0; i < 3*every; i++ {
				s.PutAs(i, i)
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() { // mergers racing the compactions
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if _, err := s.Merge(blob); err != nil {
						t.Errorf("merge during compaction: %v", err)
						return
					}
				}
			}()
			go func(g int) { // readers must never block on or race the snapshot write
				defer wg.Done()
				var since uint64
				for i := 0; i < 100; i++ {
					s.Has(shared+(g*37+i)%100, 0)
					s.Len()
					_, since, _ = s.ExportChunk(since, 1<<20)
				}
			}(g)
		}
		wg.Add(1)
		go func() { // explicit compactions racing everyone
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := s.Flush(); err != nil {
					t.Errorf("flush during merge: %v", err)
					return
				}
			}
		}()
		wg.Wait()

		const want = 3*every + 100
		if s.Len() != want {
			t.Fatalf("entries lost under concurrency: %d, want %d", s.Len(), want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, h, dir, journal.Options{}, every)
		defer s2.Close()
		if s2.Len() != want {
			t.Fatalf("reload lost entries: %d, want %d", s2.Len(), want)
		}
		wantRange(t, s2, 0, 3*every)
		wantRange(t, s2, shared, shared+100)
	})
}

// TestStoreChaosSurvival: with seeded faults fired at every I/O site,
// Put/Close never panic or corrupt, and a clean reopen serves every entry
// that survived — a damaged entry is a miss, never a wrong value.
func TestStoreChaosSurvival(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		for seed := int64(1); seed <= 4; seed++ {
			dir := t.TempDir()
			inj := chaos.Wrap(chaos.OS(), chaos.NewRate(seed, 0.05, chaos.EIO, chaos.ENOSPC, chaos.Torn))
			s, err := h.open(dir, journal.Options{FS: inj, SegmentBytes: 512}, producer, 32)
			if err != nil {
				continue // the open itself faulted; nothing persisted to verify
			}
			for i := 0; i < 100; i++ {
				s.PutAs(i, i)
			}
			_ = s.Close() // flush/compact may fault too; must not panic

			s2 := mustOpen(t, h, dir, journal.Options{}, 32)
			for i := 0; i < 100; i++ {
				if present, equal := s2.Has(i, i); present && !equal {
					t.Fatalf("seed %d: %s corrupted", seed, key(i))
				}
			}
			if s2.Stale() != 0 {
				t.Fatalf("seed %d: %d of this producer's own entries read as stale", seed, s2.Stale())
			}
			s2.Close()
		}
	})
}

// TestStoreBatchTornAtEveryByte crashes a batch (one PutAll, one journal
// write) at every byte offset of what reached the disk: the store must reopen
// from each prefix holding exactly a whole-record prefix of the batch, in
// order, with no value altered, and accept new entries. The batch goes
// through a chaos.FS whose first write tears, so the surviving journal also
// holds the rollback of a torn batch ahead of it.
func TestStoreBatchTornAtEveryByte(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		const torn, n = 100, 6 // torn: first index of the batch that tears
		dir := t.TempDir()
		inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule(chaos.Step{Op: chaos.OpWrite, Name: "journal.log", Fault: chaos.Torn}))
		s := mustOpen(t, h, dir, journal.Options{FS: inj}, 1000)
		defer s.Close()
		s.PutRange(torn, torn+4) // half lands, is rolled back; memory keeps it, disk must not
		s.PutRange(0, n)
		if st := inj.Stats(); st.TornWrites != 1 {
			t.Fatalf("the torn batch was not injected: %+v", st)
		}
		info, err := os.Stat(filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}

		last := -1
		err = journal.SweepPrefixes(dir, int(info.Size())+1, func(caseDir string, _ journal.Prefix) error {
			rc, err := h.open(caseDir, journal.Options{}, producer, 1000)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			defer rc.Close()
			got := rc.Len()
			if got < last {
				return fmt.Errorf("a longer prefix recovered fewer entries: %d after %d", got, last)
			}
			last = got
			for i := 0; i < n; i++ {
				present, equal := rc.Has(i, i)
				if present != (i < got) {
					return fmt.Errorf("%d entries recovered but %s present=%v: not a whole-record prefix", got, key(i), present)
				}
				if present && !equal {
					return fmt.Errorf("%s recovered altered", key(i))
				}
			}
			rc.PutAs(n, n)
			if present, _ := rc.Has(n, n); !present {
				return fmt.Errorf("recovered store refused a new entry")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != n {
			t.Fatalf("the whole journal recovered %d of %d entries", last, n)
		}
	})
}

// TestStoreCompactionIsDeterministic: two stores that took the same puts in
// the same order write byte-identical snapshots, so a snapshot can be
// compared, hashed or rsynced.
func TestStoreCompactionIsDeterministic(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		var snaps [2][]byte
		for i := range snaps {
			dir := t.TempDir()
			s := mustOpen(t, h, dir, journal.Options{}, 1000)
			s.PutRange(0, 20)
			s.PutRange(20, 40)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if snaps[i], err = os.ReadFile(filepath.Join(dir, "snapshot.db")); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatal("two compactions of the same entries differ")
		}
	})
}

// TestStoreProducerChange: what another producer — or the format before
// producers existed — wrote is counted and dropped at open, the directory is
// rewritten under the new producer at once, and a blob from another producer
// is refused by Merge with an error that is not a conflict.
func TestStoreProducerChange(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		dir := t.TempDir()
		old := mustOpen(t, h, dir, journal.Options{}, 1000)
		old.PutRange(0, 10)
		blob, _, _, _ := old.Export(0)
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}

		next, err := h.open(dir, journal.Options{}, "suite/2", 1000)
		if err != nil {
			t.Fatal(err)
		}
		if next.Len() != 0 || next.Stale() != 10 {
			t.Fatalf("under a new producer: len=%d stale=%d, want 0 and 10", next.Len(), next.Stale())
		}
		_, err = next.Merge(blob)
		if err == nil || errors.Is(err, journal.ErrConflict) || strings.Contains(err.Error(), "conflict") {
			t.Fatalf("merging another producer's export: %v, want a refusal that is not a conflict", err)
		}
		next.PutRange(0, 5)
		if err := next.Close(); err != nil {
			t.Fatal(err)
		}
		next, err = h.open(dir, journal.Options{}, "suite/2", 1000)
		if err != nil {
			t.Fatal(err)
		}
		defer next.Close()
		if next.Len() != 5 || next.Stale() != 0 {
			t.Fatalf("after the first compaction: len=%d stale=%d, want 5 and 0", next.Len(), next.Stale())
		}
		wantRange(t, next, 0, 5)
	})

	// The format before this one: a JSON array as the snapshot, a JSON object
	// per journal record.
	dir := t.TempDir()
	l, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte(`[{"Key":"azE=","Improved":true,"Repl":"twAAAAAABgAAAA=="}]`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"Key":"azI=","Improved":false}`), false); err != nil {
		t.Fatal(err)
	}
	l.Close()
	c, err := superopt.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 || c.Stale() != 2 {
		t.Fatalf("a pre-producer directory: len=%d stale=%d, want empty and 2 stale", c.Len(), c.Stale())
	}
}

// TestStoreExportChunks: ExportChunk walks the insertion order in blobs that
// respect the byte budget — except that a chunk always carries at least one
// entry — and merging the chunks reproduces the store.
func TestStoreExportChunks(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		src, dst := h.mem(producer), h.mem(producer)
		src.PutRange(0, 100)
		budget := 3*len(h.entry(1, 1)) + 48 // a few entries per chunk
		var since uint64
		chunks := 0
		for since < src.Seq() {
			blob, next, n := src.ExportChunk(since, budget)
			if n == 0 || next != since+uint64(n) {
				t.Fatalf("chunk from %d: n=%d next=%d", since, n, next)
			}
			if len(blob) > budget {
				t.Fatalf("chunk from %d is %d bytes, budget %d", since, len(blob), budget)
			}
			if st, err := dst.Merge(blob); err != nil || st.Added != n {
				t.Fatalf("merging chunk from %d: %+v, %v", since, st, err)
			}
			since = next
			chunks++
		}
		if chunks < 10 {
			t.Fatalf("100 entries at ~3 per chunk took %d chunks", chunks)
		}
		wantRange(t, dst, 0, 100)
		if dst.Len() != 100 {
			t.Fatalf("chunks merged to %d entries, want 100", dst.Len())
		}
		// A budget below one entry still makes progress, one entry at a time.
		if _, next, n := src.ExportChunk(7, 1); n != 1 || next != 8 {
			t.Fatalf("tiny budget: n=%d next=%d, want one entry", n, next)
		}
		// A watermark beyond the store (it was rebuilt shorter) restarts.
		if _, next, n := src.ExportChunk(1000, 1<<30); n != 100 || next != 100 {
			t.Fatalf("stale watermark: n=%d next=%d, want the full 100", n, next)
		}
	})
}

// TestStoreDamagedEntries: at open a damaged entry is a miss and its
// neighbours survive; in a Merge it refuses the whole blob, as does a key
// carrying two values — inside the blob or against the store — and a refused
// blob changes nothing.
func TestStoreDamagedEntries(t *testing.T) {
	forEachCodec(t, func(t *testing.T, h harness) {
		dir := t.TempDir()
		l, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range [][]byte{
			blobOf(producer, h.entry(0, 0)),
			blobOf(producer, []byte("\x01not an entry")),
			blobOf(producer, h.entry(1, 1), h.entry(1, 2)), // first wins
		} {
			if err := l.Append(rec, false); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		s := mustOpen(t, h, dir, journal.Options{}, 1000)
		defer s.Close()
		if s.Len() != 2 || s.Stale() != 0 {
			t.Fatalf("len=%d stale=%d, want the two intact entries and nothing stale", s.Len(), s.Stale())
		}
		wantRange(t, s, 0, 2)

		for name, blob := range map[string][]byte{
			"damaged entry":     blobOf(producer, h.entry(5, 5), []byte("\x01not an entry")),
			"truncated blob":    blobOf(producer, h.entry(5, 5))[:len(producer)+12],
			"conflict in blob":  blobOf(producer, h.entry(5, 5), h.entry(6, 1), h.entry(6, 2)),
			"conflict in store": blobOf(producer, h.entry(5, 5), h.entry(1, 2)),
		} {
			_, err := s.Merge(blob)
			if err == nil {
				t.Fatalf("%s: merged", name)
			}
			if conflict := strings.HasPrefix(name, "conflict"); errors.Is(err, journal.ErrConflict) != conflict ||
				strings.Contains(err.Error(), "conflict") != conflict {
				t.Errorf("%s: error %q", name, err)
			}
			if present, _ := s.Has(5, 5); present || s.Len() != 2 {
				t.Fatalf("%s: the refused blob leaked into the store (len %d)", name, s.Len())
			}
		}
		wantRange(t, s, 0, 2) // key 1 still holds value 1
		if st, err := s.Merge(blobOf(producer, h.entry(1, 1), h.entry(1, 1), h.entry(5, 5))); err != nil || st.Added != 1 || st.Known != 1 {
			t.Fatalf("an agreeing duplicate is not a conflict: %+v, %v", st, err)
		}
	})
}
