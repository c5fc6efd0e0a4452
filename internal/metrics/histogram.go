package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of finite log2 buckets. Bucket 0 holds exactly
// the value 0 and bucket i (1 ≤ i < NumBuckets) holds [2^(i-1), 2^i), so the
// finite buckets tile [0, 2^40) contiguously with no gaps or overlaps. One
// extra overflow bucket (index NumBuckets) catches everything ≥ 2^40.
const NumBuckets = 41

// Histogram is a fixed-bucket log2 histogram of uint64 observations (cycle
// and latency counts). Observe is three atomic adds: bucket, sum, count —
// cheap enough for the packet path. Reads (Snapshot, encoding) are
// eventually consistent with respect to in-flight observations, but every
// observation lands in exactly one bucket and is counted exactly once.
type Histogram struct {
	buckets [NumBuckets + 1]uint64
	sum     uint64
	count   uint64
}

// bucketIndex maps an observation to its unique bucket.
func bucketIndex(v uint64) int {
	if i := bits.Len64(v); i < NumBuckets {
		return i
	}
	return NumBuckets
}

// BucketRange returns the inclusive [lo, hi] value range of bucket i.
func BucketRange(i int) (lo, hi uint64) {
	switch {
	case i <= 0:
		return 0, 0
	case i < NumBuckets:
		return 1 << (i - 1), 1<<i - 1
	default:
		return 1 << (NumBuckets - 1), math.MaxUint64
	}
}

// Observe records one value. Lock-free and allocation-free.
func (h *Histogram) Observe(v uint64) {
	atomic.AddUint64(&h.buckets[bucketIndex(v)], 1)
	atomic.AddUint64(&h.sum, v)
	atomic.AddUint64(&h.count, 1)
}

// Add merges a locally tallied snapshot into the histogram: afterwards it
// holds what observing each of the tally's values would have left. A hot
// loop observes into a HistogramSnapshot and adds it once, paying a few
// atomic adds per batch instead of three per value.
func (h *Histogram) Add(s *HistogramSnapshot) {
	for i, n := range s.Buckets {
		if n != 0 {
			atomic.AddUint64(&h.buckets[i], n)
		}
	}
	atomic.AddUint64(&h.sum, s.Sum)
	atomic.AddUint64(&h.count, s.Count)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.count) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return atomic.LoadUint64(&h.sum) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Buckets holds the per-bucket observation counts; the last entry is
	// the overflow bucket.
	Buckets [NumBuckets + 1]uint64
	Count   uint64
	Sum     uint64
}

// Observe records one value in the snapshot, as Histogram.Observe would in
// the histogram. Not safe for concurrent use: it is the local tally
// Histogram.Add publishes.
func (s *HistogramSnapshot) Observe(v uint64) {
	s.Buckets[bucketIndex(v)]++
	s.Sum += v
	s.Count++
}

// Snapshot copies the histogram state. Individual fields are each read
// atomically; the snapshot as a whole is eventually consistent under
// concurrent observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = atomic.LoadUint64(&h.buckets[i])
	}
	s.Count = atomic.LoadUint64(&h.count)
	s.Sum = atomic.LoadUint64(&h.sum)
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observations. The
// estimate locates the bucket holding the rank-⌈q·count⌉ observation and
// interpolates linearly within its value range, so it always falls in the
// same log2 bucket as the exact order statistic — a relative error bounded
// by the bucket width (≤ 2×). The bench harnesses use this for p50/p99
// reporting without retaining raw samples. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// Quantile is the snapshot-side estimator; see Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	// rank is 1-based: the rank-th smallest observation.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+n < rank {
			seen += n
			continue
		}
		lo, hi := BucketRange(i)
		if i >= NumBuckets {
			// Overflow bucket: its upper edge is unbounded, so report the
			// lower edge rather than inventing a midpoint.
			return lo
		}
		// Interpolate the rank's position inside the bucket.
		frac := (float64(rank-seen) - 0.5) / float64(n)
		return lo + uint64(frac*float64(hi-lo)+0.5)
	}
	lo, _ := BucketRange(NumBuckets)
	return lo
}
