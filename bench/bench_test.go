package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	if got := mean([]float64{4, 1, 3, 2}); got != 2.5 || mean(nil) != 0 {
		t.Errorf("mean = %v (empty %v), want 2.5 (0)", got, mean(nil))
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSummarize(t *testing.T) {
	// Three windows at 100, 200 and 400 units/s: the median rate is 200.
	ws := []window{
		{units: 100, elapsed: time.Second, lat: []float64{1, 2, 3}},
		{units: 200, elapsed: time.Second, lat: []float64{4, 5, 6}},
		{units: 800, elapsed: 2 * time.Second, lat: []float64{7, 8, 90}},
	}
	s := summarize(ws)
	if s.perSec != 200 || s.p50 != 5 || s.windows != 3 || s.ops != 9 {
		t.Errorf("summarize = %+v", s)
	}
	// Too few samples per window for a per-window tail: p99 is pooled.
	if s.p99 != 90 {
		t.Errorf("pooled p99 = %v, want 90", s.p99)
	}
	// With enough samples the p99 is the median of the windows' own p99s.
	big := make([]window, 3)
	for i := range big {
		big[i] = window{units: 1, elapsed: time.Second}
		for j := 0; j < minTailSamples; j++ {
			big[i].lat = append(big[i].lat, float64(i+1))
		}
	}
	if got := summarize(big).p99; got != 2 {
		t.Errorf("per-window p99 = %v, want 2", got)
	}
}

func TestRunWindows(t *testing.T) {
	seen := map[int]int{}
	ws, err := runWindows(40*time.Millisecond, 4, func(i int, w *window) error {
		seen[i]++
		w.units++
		return timeOp(w, func() error { time.Sleep(time.Millisecond); return nil })
	})
	if err != nil || len(ws) != 4 {
		t.Fatalf("runWindows = %d windows, %v", len(ws), err)
	}
	for i, w := range ws {
		if w.units == 0 || w.units != seen[i] || len(w.lat) != w.units || w.elapsed < 10*time.Millisecond {
			t.Errorf("window %d = %d units, %d samples, %v; op saw it %d times", i, w.units, len(w.lat), w.elapsed, seen[i])
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("higher-is-better drop = %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better rise = %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "higher"); got >= 0 {
		t.Errorf("improvement = %v, want negative", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "kid", Start: 20, End: 50},      // overlaps its sibling
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},    // runs past the parent
		{ID: 5, Parent: 2, Name: "grandkid", Start: 12, End: 18}, // not the parent's child
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of its 100.
	if self["parent"] != 50 {
		t.Errorf("parent self = %d, want 50", self["parent"])
	}
	// kid: (20 - 6 covered by the grandkid) + 30.
	if self["kid"] != 44 || self["late"] != 30 || self["grandkid"] != 6 {
		t.Errorf("self times = %v", self)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.request()
	off.begin("x")() // a nil tracer records nothing and does not panic

	tr := newTracer()
	tr.request()
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	tr.request()
	tr.begin("c")()
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	if byName["b"].Parent != byName["a"].ID || byName["a"].Parent != 0 || byName["c"].Parent != 0 {
		t.Errorf("parents wrong: %+v", tr.spans)
	}
	if byName["a"].Req != byName["b"].Req || byName["c"].Req == byName["a"].Req {
		t.Errorf("request ids wrong: %+v", tr.spans)
	}
	if a, b := byName["a"], byName["b"]; b.Start < a.Start || b.End > a.End {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(workloadSpecs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128",
			len(workloadSpecs), len(endToEnd), len(perLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(bj.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		name(w.Name)
		if bj.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %+v", i, bj.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if newRunner(w.Name) == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), kind, len(want))
		}
		for i, m := range want {
			name(m.Name)
			if got[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], m)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s metric %+v: bad unit, direction or bound", kind, m)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd)
	check("per-layer", bj.PerLayer, perLayer)
	if endToEnd[0] != (metricSpec{"setup_s", "s", "lower", endToEnd[0].Bound}) {
		t.Errorf("first end-to-end metric must be setup_s in s, lower: %+v", endToEnd[0])
	}
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}

	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", bj.Command)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

// A result reports exactly the declared metrics, under the declared names.
func TestResultLineCarriesDeclaredMetrics(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := &result{workload: "serve-batch", attempted: 3, metrics: map[string]float64{"undeclared": 1}}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.jsonLine(trace)), &line); err != nil {
			t.Fatal(err)
		}
		want := specsFor(trace)
		if len(line.Metrics) != len(want) || !line.Correct || line.Attempted != 3 {
			t.Errorf("trace=%v: %d metrics, want %d; line %+v", trace, len(line.Metrics), len(want), line)
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s missing or in unit %q", trace, m.Name, got.Unit)
			}
		}
	}
}

func buildXDP(t *testing.T, name string) built {
	t.Helper()
	specs, err := xdpByName([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildForDeploy(specs[0].Mod, specs[0].Func, workerOpts(specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	return built{spec: specs[0], opt: res.Prog, base: res.Baseline}
}

// The checker passes a correct build and catches an injected mismatch: the
// run then reports correct=false and exits non-zero.
func TestCheckerCatchesInjectedMismatch(t *testing.T) {
	good, other := buildXDP(t, "xdp1"), buildXDP(t, "xdp_dropworld")

	r := &result{metrics: map[string]float64{}}
	r.setQuality(assess([]built{good}, 7))
	if r.failed != 0 || exitCode([]*result{r}) != 0 {
		t.Fatalf("correct build flagged: %+v", r)
	}
	if r.metrics["ni_reduction_pct"] <= 0 || r.metrics["cycles_reduction_pct"] <= 0 {
		t.Errorf("exact metrics not positive: %v", r.metrics)
	}

	// xdp1's bytecode checked against another program's baseline.
	bad := built{spec: good.spec, opt: good.opt, base: other.base}
	r = &result{metrics: map[string]float64{}}
	r.setQuality(assess([]built{good, bad}, 7))
	if r.failed != 1 || r.attempted != 2 || !strings.Contains(r.firstFail, "reference") {
		t.Fatalf("mismatch not counted: %+v", r)
	}
	if exitCode([]*result{r}) == 0 || !strings.Contains(r.jsonLine(false), `"correct":false`) {
		t.Errorf("a mismatch must fail the command: exit %d, line %s", exitCode([]*result{r}), r.jsonLine(false))
	}
}

func TestVerdictHistogramCheck(t *testing.T) {
	reply := "ok traffic s0 n=8 stage=live served=8 mirrored=0 eseq=1 verdicts[drop=5 pass=2 7=1]"
	want := map[string]int{"drop": 5, "pass": 2, "7": 1}
	if err := checkVerdicts(reply, want); err != nil {
		t.Errorf("matching histogram rejected: %v", err)
	}
	for _, wrong := range []map[string]int{
		{"drop": 4, "pass": 3, "7": 1},
		{"drop": 5, "pass": 2},
		{"drop": 5, "pass": 2, "7": 1, "tx": 1},
	} {
		if err := checkVerdicts(reply, wrong); err == nil {
			t.Errorf("histogram %v accepted against %q", wrong, reply)
		}
	}
	if err := checkVerdicts("ok traffic s0 n=8", want); err == nil {
		t.Error("reply without verdicts accepted")
	}
}

// The program sets are what WORKLOADS.md says they are.
func TestProgramSets(t *testing.T) {
	if n := len(corpus.XDP()); n != 19 {
		t.Errorf("XDP corpus has %d programs, WORKLOADS.md says 19", n)
	}
	if _, err := xdpByName(fleetPrograms); err != nil {
		t.Error(err)
	}
}
