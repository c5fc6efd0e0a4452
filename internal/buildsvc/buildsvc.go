// Package buildsvc turns Merlin's one-shot pipeline into a build service:
// a bounded worker-pool queue where identical submissions — content-addressed
// by source bytes plus canonicalized options, the same hashing discipline as
// the superopt verdict cache — are deduplicated so N concurrent requests for
// one program share a single underlying build, backed by a journal-framed
// artifact cache so repeat builds return bytecode and stats without running
// any pass. Together with superopt cache federation (superopt.Export/Merge,
// fleet.CacheSync) this is optimization-as-a-service: one machine's search
// pays for every machine's build.
package buildsvc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
)

// ErrQueueFull is the typed reject returned when the bounded queue cannot
// accept a new unique build. Coalesced joins and artifact-cache hits never
// see it: only work that would occupy a worker counts against the bound.
var ErrQueueFull = errors.New("buildsvc: build queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("buildsvc: service closed")

// Outcome says how a submission was satisfied.
type Outcome string

const (
	// OutcomeBuilt: this submission ran the pipeline.
	OutcomeBuilt Outcome = "built"
	// OutcomeCached: served from the artifact cache, no pass ran.
	OutcomeCached Outcome = "cached"
	// OutcomeCoalesced: joined an in-flight identical build and received
	// its result.
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeRejected: bounded queue full, typed reject.
	OutcomeRejected Outcome = "rejected"
	// OutcomeFailed: the underlying build errored (all waiters see it).
	OutcomeFailed Outcome = "failed"
)

// BuildFunc runs one build. Injectable so tests can count exactly how many
// underlying builds a stream of submissions caused.
type BuildFunc func(req Request) (*core.Result, error)

// DefaultBuild parses the request source as IR and runs the core pipeline.
func DefaultBuild(req Request) (*core.Result, error) {
	mod, err := ir.Parse(string(req.Source))
	if err != nil {
		return nil, fmt.Errorf("buildsvc: parse: %w", err)
	}
	return core.Build(mod, req.Func, req.Opts)
}

// Config configures a Service.
type Config struct {
	// Workers is the worker-pool size (<=0 means 1).
	Workers int
	// Queue bounds the number of unique builds waiting for a worker
	// (<=0 means Workers).
	Queue int
	// Build runs one build; nil means DefaultBuild.
	Build BuildFunc
	// Cache is the artifact cache; nil means a private in-memory cache.
	Cache *ArtifactCache
	// Metrics, when set, publishes queue/outcome/latency telemetry.
	Metrics *Metrics
}

// BuildResult is what one submission receives. Prog is always a private
// clone — byte-identical across every waiter of one flight, but never
// shared memory.
type BuildResult struct {
	// Key is the full content-addressed build key (hex).
	Key string
	// Outcome says how this submission was satisfied.
	Outcome Outcome
	// Prog is the optimized program.
	Prog *ebpf.Program
	// Stats is the producing build's telemetry (from the artifact cache on
	// hits — the stats of the build that filled the entry).
	Stats ArtifactStats
	// Result is the full pipeline result when this flight actually built
	// (nil for artifact-cache hits, which carry only Stats).
	Result *core.Result
}

// flight is one in-flight unique build; waiters block on done.
type flight struct {
	key      string
	req      Request
	enqueued time.Time
	done     chan struct{}
	res      *core.Result
	stats    ArtifactStats
	err      error
}

// Service is the deduplicating build queue.
type Service struct {
	cfg   Config
	cache *ArtifactCache
	met   *Metrics
	queue chan *flight
	wg    sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool
}

// New starts a Service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = cfg.Workers
	}
	if cfg.Build == nil {
		cfg.Build = DefaultBuild
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewMemArtifactCache()
	}
	s := &Service{
		cfg:      cfg,
		cache:    cache,
		met:      cfg.Metrics,
		queue:    make(chan *flight, cfg.Queue),
		inflight: map[string]*flight{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit runs (or joins, or serves from cache) the build for req and blocks
// until its result is available. Concurrency-safe; every caller gets its own
// program clone.
func (s *Service) Submit(req Request) (*BuildResult, error) {
	key := req.Key()
	if a, ok := s.cache.Get(key); ok {
		s.met.outcome(OutcomeCached)
		return &BuildResult{Key: key, Outcome: OutcomeCached, Prog: a.Prog, Stats: a.Stats}, nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return s.wait(f, OutcomeCoalesced)
	}
	f := &flight{key: key, req: req, enqueued: time.Now(), done: make(chan struct{})}
	select {
	case s.queue <- f:
		s.inflight[key] = f
		s.met.queued(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.met.outcome(OutcomeRejected)
		return nil, fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.Queue)
	}
	return s.wait(f, OutcomeBuilt)
}

// wait blocks on a flight and materializes this waiter's private result.
func (s *Service) wait(f *flight, oc Outcome) (*BuildResult, error) {
	<-f.done
	if f.err != nil {
		s.met.outcome(OutcomeFailed)
		return nil, f.err
	}
	s.met.outcome(oc)
	return &BuildResult{
		Key:     f.key,
		Outcome: oc,
		Prog:    f.res.Prog.Clone(),
		Stats:   f.stats,
		Result:  f.res,
	}, nil
}

// worker drains the queue, running one build at a time.
func (s *Service) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.met.queued(-1)
		s.met.observeQueueWait(time.Since(f.enqueued))
		start := time.Now()
		res, err := s.cfg.Build(f.req)
		dur := time.Since(start)
		s.met.observeBuild(dur)
		if err == nil {
			f.res = res
			f.stats = StatsFromResult(res, dur)
			// Fill the artifact cache before publishing and before leaving
			// the inflight map, so a submission arriving as we finish hits
			// the cache instead of starting a second build. A build a pass
			// timeout rolled back is returned but not cached: a wall clock,
			// not the key, decided its bytecode.
			if !timedOut(res) {
				s.cache.Put(f.key, Artifact{Prog: res.Prog, Stats: f.stats})
			}
		} else {
			f.err = err
		}
		s.mu.Lock()
		delete(s.inflight, f.key)
		s.mu.Unlock()
		close(f.done)
	}
}

// timedOut reports whether the guard rolled a pass back on its time budget.
func timedOut(res *core.Result) bool {
	return slices.ContainsFunc(res.PassFailures, func(f guard.PassFailure) bool { return f.Kind == guard.FailTimeout })
}

// StatsFromResult summarizes a pipeline result into artifact stats.
func StatsFromResult(res *core.Result, dur time.Duration) ArtifactStats {
	st := ArtifactStats{
		Insns:      res.Prog.NI(),
		FellBack:   res.FellBack,
		BuildNanos: dur.Nanoseconds(),
	}
	if res.Baseline != nil {
		st.BaselineInsns = res.Baseline.NI()
		st.InsnsSaved = st.BaselineInsns - st.Insns
	}
	if so := res.Superopt; so != nil {
		st.Searches = so.Searches
		st.CacheHits = so.CacheHits
		st.Rewrites = so.Rewrites
		st.CyclesSaved = so.CyclesSaved
	}
	return st
}

// Cache exposes the artifact cache (for stats verbs and flushing).
func (s *Service) Cache() *ArtifactCache { return s.cache }

// Pending returns the number of unique builds waiting for a worker.
func (s *Service) Pending() int { return len(s.queue) }

// Close stops accepting submissions, waits for in-flight builds to finish
// and flushes the artifact cache. Waiters of in-flight builds still receive
// their results.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	return s.cache.Close()
}
