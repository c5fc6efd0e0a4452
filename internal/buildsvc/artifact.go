package buildsvc

import (
	"bytes"
	"encoding/json"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/journal"
	"merlin/internal/objfile"
	"merlin/internal/superopt"
)

// Producer versions what a cached artifact means: everything core.Build runs,
// superopt included. Either constant moving makes every artifact cached
// before read as stale.
const Producer = core.PipelineVersion + "+" + superopt.Producer

// artifactCompactThreshold bounds the artifact journal like the superopt
// cache bounds its verdict journal. Artifacts are bigger than verdicts, so
// the threshold is lower.
const artifactCompactThreshold = 64

// ArtifactStats is the build telemetry stored beside each cached program, so
// a cache hit can report what the original build did without rerunning any
// pass.
type ArtifactStats struct {
	// Insns / BaselineInsns are the optimized and clang-baseline slot
	// counts; InsnsSaved is their difference.
	Insns         int
	BaselineInsns int
	InsnsSaved    int
	// CyclesSaved is the superopt tier's modeled per-execution saving.
	CyclesSaved uint64
	// Searches / CacheHits / Rewrites summarize the superopt tier (zero
	// when the tier was off).
	Searches  int
	CacheHits int
	Rewrites  int
	// FellBack records how a guarded build degraded ("" for clean builds).
	FellBack string
	// BuildNanos is the original build's wall time.
	BuildNanos int64
}

// Artifact is one cached build output: the optimized program plus the stats
// of the build that produced it.
type Artifact struct {
	Prog  *ebpf.Program
	Stats ArtifactStats
}

// ArtifactCache is the content-addressed build-artifact cache: build key ->
// optimized program + stats, a journal.Store (which documents persistence,
// locking and the producer check) over ArtifactCodec. What it adds is
// ownership: programs are cloned on the way in and on the way out, so no
// caller ever shares a program with the cache.
type ArtifactCache struct {
	s *journal.Store[Artifact]
}

// NewMemArtifactCache returns a transient in-memory artifact cache.
func NewMemArtifactCache() *ArtifactCache {
	return &ArtifactCache{journal.NewMemStore[Artifact](Producer, ArtifactCodec{})}
}

// OpenArtifactCache opens (creating if needed) a persistent artifact cache
// in dir. The journal's advisory lock makes a second opener fail fast naming
// the holder pid.
func OpenArtifactCache(dir string) (*ArtifactCache, error) {
	s, err := journal.OpenStore[Artifact](dir, journal.Options{}, Producer, ArtifactCodec{}, artifactCompactThreshold)
	if err != nil {
		return nil, err
	}
	return &ArtifactCache{s}, nil
}

// Get returns the cached artifact for key. The returned program is a clone:
// callers own it outright.
func (c *ArtifactCache) Get(key string) (Artifact, bool) {
	a, ok := c.s.Get(key)
	if !ok {
		return Artifact{}, false
	}
	return Artifact{Prog: a.Prog.Clone(), Stats: a.Stats}, true
}

// Put stores an artifact. Re-putting a known key is a no-op (the key is
// content-addressed: same key, same artifact). The program is cloned on the
// way in.
func (c *ArtifactCache) Put(key string, a Artifact) {
	c.s.Put(key, Artifact{Prog: a.Prog.Clone(), Stats: a.Stats})
}

// Len returns the number of cached artifacts.
func (c *ArtifactCache) Len() int { return c.s.Len() }

// Stale returns how many entries open dropped as another producer's.
func (c *ArtifactCache) Stale() int { return c.s.Stale() }

// Close flushes and releases the journal (and its directory lock).
func (c *ArtifactCache) Close() error { return c.s.Close() }

// ArtifactCodec frames one artifact as a JSON record. The program travels as
// an objfile envelope, the same serialization merlind uses for deploy
// sources.
type ArtifactCodec struct{}

type artifactEntry struct {
	Key   []byte
	Prog  []byte
	Stats ArtifactStats
}

func (ArtifactCodec) Encode(key string, a Artifact) []byte {
	// Neither marshal can fail: both structs hold only strings, ints and bytes.
	pb, _ := objfile.Marshal(a.Prog)
	b, _ := json.Marshal(artifactEntry{Key: []byte(key), Prog: pb, Stats: a.Stats})
	return b
}

func (ArtifactCodec) Decode(entry []byte) (string, Artifact, bool) {
	var e artifactEntry
	if json.Unmarshal(entry, &e) != nil {
		return "", Artifact{}, false
	}
	prog, err := objfile.Unmarshal(e.Prog)
	return string(e.Key), Artifact{Prog: prog, Stats: e.Stats}, err == nil
}

// Equal compares the programs: the key is content-addressed, so the same key
// means the same bytecode, whichever build (and BuildNanos) produced it.
func (ArtifactCodec) Equal(a, b Artifact) bool {
	return bytes.Equal(a.Prog.Encode(), b.Prog.Encode())
}
