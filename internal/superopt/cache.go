package superopt

import (
	"encoding/json"
	"fmt"
	"sync"

	"merlin/internal/journal"
)

// compactThreshold bounds journal growth: once this many entries have been
// appended since open, the cache folds everything into one snapshot record.
const compactThreshold = 256

// Cache is the content-addressed rewrite cache: canonical window key ->
// Verdict. With a directory it persists through an internal/journal log
// (CRC-framed records, torn-tail tolerant, atomically compacted), so warm
// builds resolve every previously seen window without searching. Without a
// directory it is a plain in-memory map.
//
// Damaged or undecodable entries degrade to cache misses — the cache is an
// accelerator, never a source of truth: every verdict it returns was proven
// before it was stored, and applied rewrites are still re-checked
// whole-program on every build.
//
// Verdicts are append-only (a key's verdict never changes; see Merge for
// what happens when two caches disagree), which is what makes fleet-wide
// federation a union: Export serializes a suffix of the insertion order,
// Merge unions it in with conflict detection.
//
// Locking: iomu serializes every mutator (Put, Merge, Flush, Close) and
// orders journal appends against compaction; mu guards the entries map and
// insertion order and is only ever held for map access, never across journal
// I/O. iomu is always acquired before mu. Readers (Get, Len, Export) take mu
// alone, so lookups and exports proceed while a compaction is writing the
// snapshot — compaction no longer assumes a quiesced cache.
type Cache struct {
	iomu     sync.Mutex // mutator/journal order; acquired before mu
	mu       sync.RWMutex
	log      *journal.Log // nil for in-memory caches
	entries  map[string]Verdict
	order    []string // keys in first-insert order; Export's delta basis
	appended int      // journal records since the last compaction (under iomu)
}

// cacheEntry is the JSON record framing for one verdict, shared by the
// on-disk journal records and the Export/Merge wire format.
type cacheEntry struct {
	Key      []byte
	Improved bool
	Repl     []byte `json:",omitempty"`
}

// NewMemCache returns a transient in-memory cache.
func NewMemCache() *Cache {
	return &Cache{entries: map[string]Verdict{}}
}

// OpenCache opens (creating if needed) a persistent cache in dir. The
// underlying journal takes a cross-process advisory lock on dir, so a
// concurrent build sharing the same cache directory fails fast with a clear
// error rather than interleaving appends.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheWith(dir, journal.Options{})
}

// OpenCacheWith is OpenCache with explicit journal options: a chaos.FS for
// fault injection, a segment-rotation threshold, and the fsync policy. The
// cache's appends are never forced — verdicts are re-provable, so the async
// policies only risk re-searching a window, never wrong results.
func OpenCacheWith(dir string, o journal.Options) (*Cache, error) {
	log, err := journal.OpenWith(dir, o)
	if err != nil {
		return nil, err
	}
	c := &Cache{log: log, entries: map[string]Verdict{}}
	if snap, ok := log.Snapshot(); ok {
		var es []cacheEntry
		if json.Unmarshal(snap, &es) == nil {
			for _, e := range es {
				c.addEntry(e)
			}
		}
	}
	_ = log.Replay(func(payload []byte) error {
		var e cacheEntry
		if json.Unmarshal(payload, &e) == nil {
			c.addEntry(e)
		}
		return nil
	})
	return c, nil
}

// addEntry inserts a decoded entry during open/replay (no locking needed:
// the cache is not yet shared).
func (c *Cache) addEntry(e cacheEntry) {
	if len(e.Key) == 0 {
		return
	}
	repl, ok := decodeInsns(e.Repl)
	if !ok {
		return
	}
	if _, dup := c.entries[string(e.Key)]; dup {
		return
	}
	c.entries[string(e.Key)] = Verdict{Improved: e.Improved, Repl: repl}
	c.order = append(c.order, string(e.Key))
}

// Get returns the memoized verdict for key.
func (c *Cache) Get(key string) (Verdict, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.entries[key]
	return v, ok
}

// Put memoizes a verdict, appending it to the journal when persistent.
// Re-putting a known key is a no-op.
func (c *Cache) Put(key string, v Verdict) {
	c.PutAll([]string{key}, []Verdict{v})
}

// PutAll memoizes vs[i] under keys[i]. The entries new to the cache reach
// the journal as one batch — one write and one policy-governed sync for the
// whole call (journal.AppendBatch), each verdict still its own record — so a
// caller resolving many windows pays for durability once: when PutAll
// returns, every verdict is as durable as a Put each would have made it.
func (c *Cache) PutAll(keys []string, vs []Verdict) {
	c.iomu.Lock()
	defer c.iomu.Unlock()
	c.putIOLocked(keys, vs)
}

// putIOLocked inserts the entries under iomu: map inserts under a short mu
// critical section, then the journal append without holding mu, so concurrent
// readers never wait on disk.
func (c *Cache) putIOLocked(keys []string, vs []Verdict) {
	var fresh []int // indices of the entries new to the cache
	c.mu.Lock()
	for i, key := range keys {
		if _, ok := c.entries[key]; !ok {
			c.entries[key] = vs[i]
			c.order = append(c.order, key)
			fresh = append(fresh, i)
		}
	}
	c.mu.Unlock()
	if c.log == nil || len(fresh) == 0 {
		return
	}
	payloads := make([][]byte, 0, len(fresh))
	for _, i := range fresh {
		if payload, err := json.Marshal(encodeEntry(keys[i], vs[i])); err == nil {
			payloads = append(payloads, payload)
		}
	}
	if c.log.AppendBatch(payloads, false) == nil {
		// The compaction threshold counts records, not batches.
		c.appended += len(payloads)
		if c.appended >= compactThreshold {
			_ = c.compactIOLocked()
		}
	}
}

// encodeEntry converts one verdict to its wire/journal record.
func encodeEntry(key string, v Verdict) cacheEntry {
	var repl []byte
	for _, ins := range v.Repl {
		repl = appendInsn(repl, ins)
	}
	return cacheEntry{Key: []byte(key), Improved: v.Improved, Repl: repl}
}

// verdictsEqual reports whether two verdicts agree instruction for
// instruction — the federation conflict predicate.
func verdictsEqual(a, b Verdict) bool {
	if a.Improved != b.Improved || len(a.Repl) != len(b.Repl) {
		return false
	}
	for i := range a.Repl {
		if a.Repl[i] != b.Repl[i] {
			return false
		}
	}
	return true
}

// Len returns the number of memoized windows.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Seq returns the cache's insertion sequence number: the value to pass to a
// later Export to receive only entries added after this call.
func (c *Cache) Seq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(len(c.order))
}

// Export serializes every entry inserted at sequence >= since (0 exports
// everything) and returns the blob plus the cache's current sequence — the
// watermark to pass to the next Export for a pure delta. A since beyond the
// current sequence (a restarted cache whose insertion order was rebuilt
// shorter) degrades to a full export: merging is idempotent, so over-sending
// is always safe and self-healing.
func (c *Cache) Export(since uint64) (blob []byte, seq uint64, n int, err error) {
	c.mu.RLock()
	if since > uint64(len(c.order)) {
		since = 0
	}
	keys := c.order[since:]
	es := make([]cacheEntry, 0, len(keys))
	for _, k := range keys {
		es = append(es, encodeEntry(k, c.entries[k]))
	}
	seq = uint64(len(c.order))
	c.mu.RUnlock()
	blob, err = json.Marshal(es)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("superopt: export: %w", err)
	}
	return blob, seq, len(es), nil
}

// MergeStats reports what one Merge did.
type MergeStats struct {
	// Added is the number of entries new to this cache.
	Added int
	// Known is the number of entries already present with an identical
	// verdict (the idempotent overlap of a union).
	Known int
}

// Merge unions an Export blob into the cache. Every entry is validated
// before anything is applied: a conflict — the same key carrying a different
// verdict, whether against an existing entry or between two entries inside
// the blob — fails the whole merge loudly and leaves the cache unmutated.
// Silent overwrite is never an option: two proven verdicts for one canonical
// window cannot disagree unless a proof (or a cache) is corrupt, and that
// must surface, not vanish.
func (c *Cache) Merge(blob []byte) (MergeStats, error) {
	var st MergeStats
	var es []cacheEntry
	if err := json.Unmarshal(blob, &es); err != nil {
		return st, fmt.Errorf("superopt: merge: undecodable export: %w", err)
	}
	type decoded struct {
		key string
		v   Verdict
	}
	incoming := make([]decoded, 0, len(es))
	inBlob := map[string]Verdict{}
	for i, e := range es {
		if len(e.Key) == 0 {
			return st, fmt.Errorf("superopt: merge: entry %d has an empty key", i)
		}
		repl, ok := decodeInsns(e.Repl)
		if !ok {
			return st, fmt.Errorf("superopt: merge: entry %d has a corrupt replacement", i)
		}
		v := Verdict{Improved: e.Improved, Repl: repl}
		if prev, dup := inBlob[string(e.Key)]; dup {
			if !verdictsEqual(prev, v) {
				return st, fmt.Errorf("superopt: merge conflict: blob carries two verdicts for key %x", e.Key)
			}
			continue
		}
		inBlob[string(e.Key)] = v
		incoming = append(incoming, decoded{key: string(e.Key), v: v})
	}

	// iomu blocks concurrent mutators, so the validate-then-apply pair below
	// is atomic against every other writer; readers keep being served the
	// pre-merge (then incrementally merged) map throughout.
	c.iomu.Lock()
	defer c.iomu.Unlock()
	c.mu.RLock()
	for _, d := range incoming {
		if have, ok := c.entries[d.key]; ok {
			if !verdictsEqual(have, d.v) {
				c.mu.RUnlock()
				return st, fmt.Errorf("superopt: merge conflict: key %x holds a different verdict (local improved=%v len=%d, incoming improved=%v len=%d); refusing to overwrite",
					d.key, have.Improved, len(have.Repl), d.v.Improved, len(d.v.Repl))
			}
			st.Known++
		}
	}
	c.mu.RUnlock()
	for _, d := range incoming {
		if _, ok := c.Get(d.key); ok {
			continue
		}
		c.putIOLocked([]string{d.key}, []Verdict{d.v})
		st.Added++
	}
	return st, nil
}

// compactIOLocked folds the cache into one snapshot record. Called with iomu
// held; mu is only taken to marshal a consistent view, so concurrent Get and
// Export are never blocked behind the snapshot write.
func (c *Cache) compactIOLocked() error {
	if c.log == nil {
		return nil
	}
	c.mu.RLock()
	es := make([]cacheEntry, 0, len(c.order))
	for _, k := range c.order {
		es = append(es, encodeEntry(k, c.entries[k]))
	}
	c.mu.RUnlock()
	payload, err := json.Marshal(es)
	if err != nil {
		return err
	}
	if err := c.log.Compact(payload); err != nil {
		return err
	}
	c.appended = 0
	return nil
}

// Flush compacts any appended entries into the snapshot (durable and fast to
// reload). No-op for in-memory caches.
func (c *Cache) Flush() error {
	c.iomu.Lock()
	defer c.iomu.Unlock()
	if c.appended == 0 {
		return nil
	}
	return c.compactIOLocked()
}

// Close flushes and releases the journal (and its state-dir lock).
func (c *Cache) Close() error {
	c.iomu.Lock()
	defer c.iomu.Unlock()
	if c.log == nil {
		return nil
	}
	var ferr error
	if c.appended != 0 {
		ferr = c.compactIOLocked()
	}
	err := c.log.Close()
	c.log = nil
	if ferr != nil {
		return ferr
	}
	return err
}
