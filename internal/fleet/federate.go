// Superopt cache federation: the controller periodically pulls every
// worker's verdict-cache delta, merges them into one union (same
// content-addressed, budget-qualified keys as the caches themselves — a
// conflict means a corrupt cache and aborts the sync loudly), and pushes the
// merged cache back out, so one machine's enumerative search pays for every
// machine's build.
package fleet

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strings"

	"merlin/internal/journal"
	"merlin/internal/superopt"
)

// CacheSyncReport summarizes one federation round.
type CacheSyncReport struct {
	// Workers is how many workers the round addressed.
	Workers int
	// Pulled counts workers whose delta export was fetched and merged.
	Pulled int
	// Entries is the total verdict entries pulled this round.
	Entries int
	// Pushed counts workers that accepted the merged union.
	Pushed int
	// Skipped counts workers unreachable (or erroring) in either phase;
	// their watermark stops at the last chunk merged, so the next round
	// self-heals.
	Skipped int
	// Union is the size of the controller's merged cache after the round.
	Union int
}

func (r CacheSyncReport) String() string {
	return fmt.Sprintf("workers=%d pulled=%d entries=%d union=%d pushed=%d skipped=%d",
		r.Workers, r.Pulled, r.Entries, r.Union, r.Pushed, r.Skipped)
}

// CacheSync runs one federation round: pull each worker's superopt verdict
// delta (per-worker watermarks keep repeat rounds incremental), merge into
// the controller-held union, then push the union to every worker. Both
// directions move in chunks that fit a protocol line, so a union of any size
// federates; a merge is atomic per chunk, and a watermark advances per chunk
// pulled. Unreachable workers, and workers built from another producer
// version, are skipped and caught up next round. A verdict conflict — the
// same key with a different verdict, which can only mean a corrupt cache or
// proof — aborts the sync with a loud error naming the worker; nothing is
// silently overwritten. stepMu serializes the round against rollout steps
// and reconciles, like every other compound multi-RPC operation.
func (c *Controller) CacheSync() (CacheSyncReport, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	if c.fedCache == nil {
		c.fedCache = superopt.NewMemCache()
		c.fedSeqs = map[string]uint64{}
	}
	var rep CacheSyncReport
	workers := c.Workers()
	rep.Workers = len(workers)
	if c.met != nil {
		c.met.cacheSyncs.Inc()
	}
	skip := func() {
		rep.Skipped++
		if c.met != nil {
			c.met.cacheSkips.Inc()
		}
	}
	conflict := func(err error) (CacheSyncReport, error) {
		if c.met != nil {
			c.met.cacheConflicts.Inc()
		}
		return rep, err
	}

pull:
	for _, name := range workers {
		for {
			lines, err := c.rpc(name, fmt.Sprintf("cacheexport %d", c.fedSeqs[name]), true)
			if _, isErr := ReplyErr(lines); err != nil || isErr {
				// Unreachable, or a worker without -superopt (or a
				// malformed request) answering err: it has nothing to
				// federate. Skip, don't abort.
				skip()
				continue pull
			}
			blob, seq, n, end, err := parseCacheExport(lines)
			if err == nil {
				_, err = c.fedCache.Merge(blob)
			}
			if errors.Is(err, journal.ErrConflict) {
				return conflict(fmt.Errorf("fleet: cache sync: merging worker %s: %w", name, err))
			}
			if err != nil {
				skip()
				continue pull
			}
			c.fedSeqs[name] = seq
			rep.Entries += n
			if c.met != nil {
				c.met.cachePulled.Add(uint64(n))
			}
			if n == 0 || seq >= end {
				break
			}
		}
		rep.Pulled++
	}

	rep.Union = c.fedCache.Len()
	if c.met != nil {
		c.met.cacheUnion.Set(int64(rep.Union))
	}
	var pushes []string // the union, one cachemerge line per chunk
	for since, end := uint64(0), c.fedCache.Seq(); since < end; {
		blob, next, _ := c.fedCache.ExportChunk(since, cacheChunkBytes)
		pushes = append(pushes, "cachemerge "+base64.StdEncoding.EncodeToString(blob))
		since = next
	}
push:
	for _, name := range workers {
		for _, line := range pushes {
			// The union merge is idempotent, so retrying reads is safe.
			lines, err := c.rpc(name, line, true)
			errLine, isErr := ReplyErr(lines)
			if isErr && strings.Contains(errLine, "conflict") {
				return conflict(fmt.Errorf("fleet: cache sync: worker %s rejected the union: %s", name, errLine))
			}
			if err != nil || isErr {
				skip()
				continue push
			}
		}
		rep.Pushed++
		if c.met != nil {
			c.met.cachePushed.Add(uint64(rep.Union))
		}
	}
	return rep, nil
}

// parseCacheExport extracts the base64 blob, the sequence it reaches and the
// worker's current sequence from a cacheexport reply: a "cachedata <b64>"
// line followed by "ok cacheexport seq=N entries=M end=E".
func parseCacheExport(lines []string) (blob []byte, seq uint64, entries int, end uint64, err error) {
	b64, ok := strings.CutPrefix(lines[0], "cachedata ")
	if !ok || len(lines) != 2 {
		return nil, 0, 0, 0, fmt.Errorf("fleet: cacheexport reply is not a cachedata line and an ok line")
	}
	if blob, err = base64.StdEncoding.DecodeString(strings.TrimSpace(b64)); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fleet: cacheexport blob: %w", err)
	}
	if _, err = fmt.Sscanf(lines[1], "ok cacheexport seq=%d entries=%d end=%d", &seq, &entries, &end); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("fleet: cacheexport reply %q: %w", lines[1], err)
	}
	return blob, seq, entries, end, nil
}
