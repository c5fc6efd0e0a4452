package superopt

import (
	"encoding/binary"
	"slices"

	"merlin/internal/journal"
)

// Producer versions what a cached verdict means: the window canonicalization
// and key, the search space and its order, and the equivalence proof. Bump it
// whenever any of them can answer differently for some window — every cache
// written before then reads as stale instead of serving (and federating) the
// old answers. core's TestProducerVersionsPinned fails when the corpus output
// moves without a bump.
const Producer = "superopt/1"

// compactThreshold bounds journal growth: once this many verdicts have been
// appended since the last compaction, the cache folds into one snapshot.
const compactThreshold = 256

// Cache is the content-addressed rewrite cache: canonical window key ->
// Verdict, a journal.Store (which documents persistence, locking, federation
// and the producer check) over VerdictCodec. Warm builds resolve every
// previously seen window from it without searching; every verdict it returns
// was proven before it was stored, and applied rewrites are still re-checked
// whole-program on every build.
type Cache = journal.Store[Verdict]

// NewMemCache returns a transient in-memory cache.
func NewMemCache() *Cache { return journal.NewMemStore[Verdict](Producer, VerdictCodec{}) }

// OpenCache opens (creating if needed) a persistent cache in dir. A second
// process opening the same directory fails fast with journal.ErrLocked.
func OpenCache(dir string) (*Cache, error) { return OpenCacheWith(dir, journal.Options{}) }

// OpenCacheWith is OpenCache with explicit journal options: a chaos.FS for
// fault injection and a segment-rotation threshold.
func OpenCacheWith(dir string, o journal.Options) (*Cache, error) {
	return journal.OpenStore[Verdict](dir, o, Producer, VerdictCodec{}, compactThreshold)
}

// VerdictCodec frames one verdict as the uvarint key length, the key, one
// improved-or-not byte, and the replacement in appendInsn's fixed 9-byte
// encoding.
type VerdictCodec struct{}

func (VerdictCodec) Encode(key string, v Verdict) []byte {
	b := binary.AppendUvarint(make([]byte, 0, 2+len(key)+1+9*len(v.Repl)), uint64(len(key)))
	b = append(append(b, key...), 0)
	if v.Improved {
		b[len(b)-1] = 1
	}
	for _, ins := range v.Repl {
		b = appendInsn(b, ins)
	}
	return b
}

func (VerdictCodec) Decode(entry []byte) (string, Verdict, bool) {
	n, w := binary.Uvarint(entry)
	if w <= 0 || n >= uint64(len(entry)-w) { // the flag byte follows the key
		return "", Verdict{}, false
	}
	flag := w + int(n)
	repl, ok := decodeInsns(entry[flag+1:])
	return string(entry[w:flag]), Verdict{Improved: entry[flag] == 1, Repl: repl}, ok && entry[flag] <= 1
}

func (VerdictCodec) Equal(a, b Verdict) bool { return verdictsEqual(a, b) }

// verdictsEqual reports whether two verdicts agree instruction for
// instruction — the federation conflict predicate.
func verdictsEqual(a, b Verdict) bool {
	return a.Improved == b.Improved && slices.Equal(a.Repl, b.Repl)
}
