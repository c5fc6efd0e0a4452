package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// window is one equal slice of a timed phase: the work it completed, how
// long it ran, and one latency sample (µs) per operation.
type window struct {
	units   int
	elapsed time.Duration
	lat     []float64
}

// runWindows runs op back to back for total, cut into n windows of equal
// wall time (a window closes after the first op that crosses its end). op
// adds its units and latency samples to window i, which it is handed.
func runWindows(total time.Duration, n int, op func(i int, w *window) error) ([]window, error) {
	per := total / time.Duration(n)
	ws := make([]window, n)
	for i := range ws {
		w := &ws[i]
		start := time.Now()
		for w.elapsed < per {
			if err := op(i, w); err != nil {
				return ws[:i], err
			}
			w.elapsed = time.Since(start)
		}
	}
	return ws, nil
}

// timeOp runs fn and records its duration as one latency sample of w.
func timeOp(w *window, fn func() error) error {
	t0 := time.Now()
	err := fn()
	w.lat = append(w.lat, us(time.Since(t0)))
	return err
}

// minTailSamples is the per-window sample count from which a window's own
// p99 has at least ten samples around the tail; below it the p99 is taken
// over the pooled samples of all windows.
const minTailSamples = 1000

// summary is what a timed phase reports: every figure is a median over
// windows, with the sample counts it rests on.
type summary struct {
	perSec   float64 // units per second
	p50, p99 float64 // µs per operation
	windows  int
	ops      int
}

func summarize(ws []window) summary {
	s := summary{windows: len(ws)}
	var rates, p50s, p99s, pooled []float64
	perWindowTail := true
	for _, w := range ws {
		s.ops += len(w.lat)
		rates = append(rates, float64(w.units)/w.elapsed.Seconds())
		p50s = append(p50s, median(w.lat))
		p99s = append(p99s, percentile(w.lat, 99))
		pooled = append(pooled, w.lat...)
		if len(w.lat) < minTailSamples {
			perWindowTail = false
		}
	}
	s.perSec = median(rates)
	s.p50 = median(p50s)
	if perWindowTail {
		s.p99 = median(p99s)
	} else {
		s.p99 = percentile(pooled, 99)
	}
	return s
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// worseBy is the share of a by which b is worse, given the metric's
// direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
