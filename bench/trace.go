package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are recorded
// from the benchmark's own files only; spans inside the program under test
// are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are only counted.
const maxSpans = 200000

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site. It is used
// from one goroutine.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	stack   []int // open span ids, innermost last
	nextID  int
	req     int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request; spans begun afterwards carry its id.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span under the innermost open span and returns the function
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.nextID++
	id, parent := t.nextID, 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	start := time.Since(t.t0).Nanoseconds()
	return func() {
		end := time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.spans) >= maxSpans {
			t.dropped++
			return
		}
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: start, End: end})
	}
}

// timed runs fn as one span and returns how long it took.
func (t *tracer) timed(name string, fn func()) time.Duration {
	end := t.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int                `json:"spans_dropped"`
	SelfNs   map[string]int64   `json:"self_ns_by_name"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Dropped: t.dropped,
		SelfNs: selfTimes(t.spans), Layers: layers, Spans: t.spans,
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
