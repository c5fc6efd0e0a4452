package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Codec is the only thing two Stores differ in: how one entry becomes bytes.
type Codec[V any] interface {
	// Encode serializes one entry.
	Encode(key string, v V) []byte
	// Decode is Encode's inverse; ok=false reports a damaged entry.
	Decode(entry []byte) (key string, v V, ok bool)
	// Equal reports whether two values for one key agree — Merge's conflict
	// predicate.
	Equal(a, b V) bool
}

// ErrConflict marks a Merge refused because one key carries two values.
var ErrConflict = errors.New("conflict")

// Store is a content-addressed, first-wins map: a key's value never changes
// once inserted, which is what makes Merge a union and Export a suffix of the
// insertion order. With a directory it persists through a Log — every Put is
// appended as CRC-framed records, the whole map is periodically folded into
// the snapshot — and without one it is a plain in-memory map.
//
// A Store is an accelerator, never a source of truth. Every blob it writes
// (journal record, snapshot, Export) names the producer whose facts it holds;
// at open, entries from any other producer — or in any other format — are
// counted (Stale) and dropped, and a damaged entry is a miss.
//
// Locking: iomu serializes every mutator (PutAll, Merge, Flush, Close) and
// orders journal appends against compaction; mu guards the map and the
// insertion order and is only ever held for map access, never across journal
// I/O or a codec call. iomu is always acquired before mu. Readers (Get, Len,
// Seq, Export) take mu alone, so they proceed while a compaction is writing
// the snapshot.
type Store[V any] struct {
	producer     string
	codec        Codec[V]
	compactEvery int // journal records between compactions

	iomu    sync.Mutex // mutator/journal order; acquired before mu
	mu      sync.RWMutex
	log     *Log // nil for in-memory stores
	entries map[string]V
	order   []string // keys in first-insert order, append-only
	stale   int      // entries dropped at open; fixed afterwards
}

// NewMemStore returns a transient in-memory store.
func NewMemStore[V any](producer string, codec Codec[V]) *Store[V] {
	return &Store[V]{producer: producer, codec: codec, entries: map[string]V{}}
}

// OpenStore opens (creating if needed) a persistent store in dir. producer
// names the code whose outputs the store memoizes: change it whenever that
// code's results can change, and everything cached before reads as stale.
// compactEvery is how many appended records trigger a compaction. o carries
// the journal's chaos.FS and segment size. Each PutAll or Merge batch is a
// forced append — one write, one fsync — because a store's callers never
// call Sync: unforced, a batch would wait for the next compaction or Close,
// and a crash would lose every entry since. The journal's advisory lock
// makes a second opener of dir fail fast (ErrLocked).
func OpenStore[V any](dir string, o Options, producer string, codec Codec[V], compactEvery int) (*Store[V], error) {
	log, err := OpenWith(dir, o)
	if err != nil {
		return nil, err
	}
	s := &Store[V]{producer: producer, codec: codec, compactEvery: compactEvery, log: log, entries: map[string]V{}}
	if snap, ok := log.Snapshot(); ok {
		s.load(snap)
	}
	// A read fault mid-replay leaves a smaller store, never a wrong one.
	_ = log.Replay(func(payload []byte) error {
		s.load(payload)
		return nil
	})
	return s, nil
}

// load inserts one blob's entries during open (the store is not yet shared).
func (s *Store[V]) load(blob []byte) {
	producer, raw, ok := decodeBlob(blob)
	if !ok || producer != s.producer {
		s.stale += max(1, len(raw))
		return
	}
	for _, e := range raw {
		key, v, ok := s.codec.Decode(e)
		if _, dup := s.entries[key]; !ok || key == "" || dup {
			continue
		}
		s.entries[key] = v
		s.order = append(s.order, key)
	}
}

// decodeBlob splits a blob, the one serialization journal records, the
// snapshot and Export share: the producer, then entries in insertion order,
// each in the journal's own record framing (so an Export is checksummed on
// the wire too). The codec's bytes are carried as they are.
func decodeBlob(b []byte) (producer string, entries [][]byte, ok bool) {
	valid, _, _ := scanRecords(bytes.NewReader(b), func(p []byte) error {
		entries = append(entries, p)
		return nil
	})
	if valid != int64(len(b)) || len(entries) == 0 {
		return "", nil, false
	}
	return string(entries[0]), entries[1:], true
}

// Get returns the value stored under key.
func (s *Store[V]) Get(key string) (V, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.entries[key]
	return v, ok
}

// Len returns the number of entries: nothing is ever removed, so it is the
// insertion sequence.
func (s *Store[V]) Len() int { return int(s.Seq()) }

// Seq returns the insertion sequence number: the value to pass to a later
// Export to receive only entries added after this call.
func (s *Store[V]) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.order))
}

// Put stores one entry; see PutAll.
func (s *Store[V]) Put(key string, v V) { s.PutAll([]string{key}, []V{v}) }

// PutAll stores vs[i] under keys[i]; a key already present keeps its value.
// The entries new to the store reach the journal as one batch — one write and
// one fsync for the whole call (AppendBatch), each entry still its own record
// — so a caller inserting many pays for durability once.
func (s *Store[V]) PutAll(keys []string, vs []V) {
	s.iomu.Lock()
	defer s.iomu.Unlock()
	s.putIOLocked(keys, vs)
}

// putIOLocked inserts under iomu and reports how many entries were new: map
// inserts in one short mu critical section, then the journal append without
// mu, so readers never wait on disk.
func (s *Store[V]) putIOLocked(keys []string, vs []V) int {
	var fresh []int
	s.mu.Lock()
	for i, key := range keys {
		if _, ok := s.entries[key]; !ok {
			s.entries[key] = vs[i]
			s.order = append(s.order, key)
			fresh = append(fresh, i)
		}
	}
	s.mu.Unlock()
	if s.log == nil || len(fresh) == 0 {
		return len(fresh)
	}
	payloads := make([][]byte, len(fresh))
	for j, i := range fresh {
		payloads[j] = appendFrame(frame([]byte(s.producer)), s.codec.Encode(keys[i], vs[i]))
	}
	// The compaction threshold counts the journal's records, not batches.
	if s.log.AppendBatch(payloads, true) == nil && s.log.Records() >= s.compactEvery {
		_ = s.compactIOLocked() // failing leaves a longer journal, retried by the next put
	}
	return len(fresh)
}

// ExportChunk serializes the entries inserted at sequence >= since, in
// order, stopping before the blob would outgrow maxBytes — but never before
// the first entry, so a caller looping on next always advances. next is the
// sequence the blob reaches: pass it back as since for the following chunk;
// it equals Seq() once nothing is left. A since beyond the current sequence
// (a restarted store whose order was rebuilt shorter) restarts from 0:
// merging is idempotent, so over-sending is always safe and self-healing.
func (s *Store[V]) ExportChunk(since uint64, maxBytes int) (blob []byte, next uint64, n int) {
	s.mu.RLock()
	if since > uint64(len(s.order)) {
		since = 0
	}
	keys := s.order[since:] // append-only: these elements never change
	s.mu.RUnlock()
	blob = frame([]byte(s.producer))
	for _, key := range keys {
		v, _ := s.Get(key)
		e := s.codec.Encode(key, v)
		if n > 0 && len(blob)+headerSize+len(e) > maxBytes {
			break
		}
		blob = appendFrame(blob, e)
		n++
	}
	return blob, since + uint64(n), n
}

// Export is ExportChunk without a size bound: everything from since on, and
// the store's sequence as the watermark for the next delta. err is always
// nil and stays in the signature for the callers compiled against it.
func (s *Store[V]) Export(since uint64) (blob []byte, seq uint64, n int, err error) {
	blob, seq, n = s.ExportChunk(since, math.MaxInt)
	return blob, seq, n, nil
}

// MergeStats reports what one Merge did.
type MergeStats struct {
	// Added is the number of entries new to this store.
	Added int
	// Known is the number already present with an equal value (the
	// idempotent overlap of a union).
	Known int
}

// Merge unions an Export blob into the store. Everything is validated before
// anything is applied: a blob from another producer or with a damaged entry
// is refused, and a conflict — one key carrying two unequal values, whether
// against the store or inside the blob — fails the whole merge with an
// ErrConflict and leaves the store unmutated. Silent overwrite is never an
// option: two producers of the same version cannot disagree about one key
// unless a proof or a cache is corrupt, and that must surface. The new
// entries are journaled as one batch, like a PutAll.
func (s *Store[V]) Merge(blob []byte) (MergeStats, error) {
	var st MergeStats
	producer, raw, ok := decodeBlob(blob)
	if !ok || producer != s.producer {
		return st, fmt.Errorf("%s: merge: export is undecodable or from another producer (%q)", s.producer, producer)
	}
	keys, vs := make([]string, 0, len(raw)), make([]V, 0, len(raw))
	inBlob := make(map[string]V, len(raw))
	for i, e := range raw {
		key, v, ok := s.codec.Decode(e)
		if !ok || key == "" {
			return st, fmt.Errorf("%s: merge: entry %d is damaged", s.producer, i)
		}
		if prev, dup := inBlob[key]; dup {
			if !s.codec.Equal(prev, v) {
				return st, fmt.Errorf("%s: merge %w: export carries two values for key %x", s.producer, ErrConflict, key)
			}
			continue
		}
		inBlob[key] = v
		keys, vs = append(keys, key), append(vs, v)
	}

	// iomu blocks every other mutator, so validate-then-apply is atomic
	// against writers; readers keep being served throughout.
	s.iomu.Lock()
	defer s.iomu.Unlock()
	s.mu.RLock()
	for i, key := range keys {
		if have, ok := s.entries[key]; ok && !s.codec.Equal(have, vs[i]) {
			s.mu.RUnlock()
			return st, fmt.Errorf("%s: merge %w: key %x holds a different value; refusing to overwrite", s.producer, ErrConflict, key)
		}
	}
	s.mu.RUnlock()
	st.Added = s.putIOLocked(keys, vs)
	st.Known = len(keys) - st.Added // what was present passed the check above
	return st, nil
}

// compactIOLocked folds the journal's records, if it has any, into one
// snapshot blob of the whole store, entries in insertion order (so equal
// stores write equal bytes); that empties the journal and with it the count
// towards the next compaction. Called with iomu held.
func (s *Store[V]) compactIOLocked() error {
	if s.log == nil || s.log.Records() == 0 {
		return nil
	}
	blob, _, _ := s.ExportChunk(0, math.MaxInt)
	return s.log.Compact(blob)
}

// Flush compacts now rather than at the threshold (durable and fast to
// reload). No-op for in-memory stores.
func (s *Store[V]) Flush() error {
	s.iomu.Lock()
	defer s.iomu.Unlock()
	return s.compactIOLocked()
}

// Close flushes and releases the journal (and its directory lock).
func (s *Store[V]) Close() error {
	s.iomu.Lock()
	defer s.iomu.Unlock()
	if s.log == nil {
		return nil
	}
	err := errors.Join(s.compactIOLocked(), s.log.Close())
	s.log = nil
	return err
}

// Stale returns how much open dropped because another producer (or another
// format) wrote it: entries where they could be counted, else records.
func (s *Store[V]) Stale() int { return s.stale }
