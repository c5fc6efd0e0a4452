// Command bench is the repository's benchmark: one program that drives the
// build path (buildsvc.Submit) and the serving path (fleet.Controller →
// fleet.TCP → real merlind workers → lifecycle → vm) from outside, prints
// every end-to-end metric by name with its unit, checks outputs against an
// independent reference and exits non-zero on any mismatch. With -trace 1 it
// reports the per-layer metrics instead and writes the recorded spans to
// bench/out. BENCHMARK.json at the repository root declares the command, the
// workloads and the metrics; README.md and WORKLOADS.md explain them.
//
// Usage, from the repository root:
//
//	go run ./bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n]
//
// Without -workload every workload runs in turn. With it, the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one cold build cache or page cache does not decide it.
const setupReps = 3

// timedWindows is the number of equal windows a timed phase is cut into.
const timedWindows = 10

// runner is one workload. setup builds everything the timed phase needs
// (programs, caches, worker processes); measure is the untraced run behind
// the end-to-end metrics; layers is the traced run behind the per-layer
// ones; close releases what setup acquired.
type runner interface {
	setup(e *env, seed int64) error
	measure(d time.Duration, r *result) error
	layers(d time.Duration, tr *tracer, r *result) error
	close()
}

func newRunner(name string) runner {
	switch name {
	case "build-cold":
		return &buildRunner{}
	case "build-warm":
		return &buildRunner{warm: true}
	case "serve-fleet":
		return &daemonRunner{fleet: true}
	case "serve-daemon-bulk":
		return &daemonRunner{}
	case "serve-batch":
		return &localRunner{}
	case "serve-mirror":
		return &localRunner{mirror: true}
	}
	return nil
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // sample counts, digests, derived figures
	firstFail string
	childRSS  float64 // MiB held by worker processes at their peak
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed operations (or reference mismatches).
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// setQuality reports the exact metrics and the reference check's tally.
func (r *result) setQuality(q quality) {
	r.set("ni_reduction_pct", q.niReductionPct())
	r.set("cycles_reduction_pct", q.cyclesReductionPct())
	r.attempted += q.checked
	if q.mismatches > 0 {
		r.fail(q.mismatches, "reference mismatch: %v", q.firstMismatch)
	}
	r.note("reference check: %d programs x %d inputs, %d mismatches; NI %d -> %d",
		q.checked, checkInputs, q.mismatches, q.niBase, q.niOpt)
}

func (r *result) setSummary(s summary) {
	r.set("throughput_per_s", s.perSec)
	r.set("op_p50_us", s.p50)
	r.set("op_p99_us", s.p99)
	r.note("timed phase: %d windows, %d operations", s.windows, s.ops)
}

// env owns what must not outlive the process: the scratch directory and the
// worker processes. cleanup runs on normal exit and on SIGINT/SIGTERM.
type env struct {
	root string // repository root (the working directory)
	dir  string // scratch directory, inside the checkout

	mu      sync.Mutex
	workers map[*worker]bool
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "merlind")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, dir: dir, workers: map[*worker]bool{}}, nil
}

func (e *env) cleanup() {
	e.mu.Lock()
	ws := make([]*worker, 0, len(e.workers))
	for w := range e.workers {
		ws = append(ws, w)
	}
	e.mu.Unlock()
	for _, w := range ws {
		w.stop()
	}
	os.RemoveAll(e.dir)
}

// tempDir returns a fresh directory under the scratch directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-")
}

// runOnce sets the workload up setupReps times, measures it once and reports.
func runOnce(e *env, name string, seed int64, d time.Duration, trace bool) (*result, error) {
	r := &result{workload: name, metrics: map[string]float64{}}
	// Start this workload's peak-memory reading from here (Linux resets VmHWM
	// on this write; elsewhere the reading covers the whole process).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var run runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if run != nil {
			run.close()
		}
		run = newRunner(name)
		t0 := time.Now()
		if err := run.setup(e, seed); err != nil {
			run.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer run.close()
	if trace {
		tr := newTracer()
		if err := run.layers(d, tr, r); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", name, err)
		}
		for _, m := range perLayer {
			if _, ok := r.metrics[m.Name]; !ok {
				r.set(m.Name, 0) // layer not on this workload's path
			}
		}
		path, err := tr.write(filepath.Join(e.root, "bench", "out"), name, seed, r.metrics)
		if err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", name, err)
		}
		r.note("%d spans written to %s", len(tr.spans), path)
		return r, nil
	}
	if err := run.measure(d, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.set("setup_s", median(setups))
	r.set("peak_rss_mb", selfRSS()+r.childRSS)
	return r, nil
}

// selfRSS is this process's peak resident set in MiB.
func selfRSS() float64 { return procRSS(os.Getpid()) }

// procRSS reads VmHWM of a process from /proc; 0 where there is no /proc.
func procRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) print(trace bool) {
	fmt.Printf("== %s\n", r.workload)
	for _, m := range specsFor(trace) {
		fmt.Printf("%-18s %-34s %16.4f %s\n", r.workload, m.Name, r.metrics[m.Name], m.Unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-18s %-34s %16.6f (failed %d of %d attempted)\n", r.workload, "fail_ratio", ratio, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	if r.firstFail != "" {
		fmt.Printf("  ! first failure: %s\n", r.firstFail)
	}
}

// jsonLine is the contract's result object.
func (r *result) jsonLine(trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]mv{}}
	for _, m := range specsFor(trace) {
		out.Metrics[m.Name] = mv{r.metrics[m.Name], m.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// compare prints, per metric and workload, both runs' values, how much worse
// the second is and whether that is within the metric's bound.
func compare(a, b []*result) bool {
	ok := true
	fmt.Printf("== repeat: run 1 vs run 2 of the same code\n")
	fmt.Printf("%-18s %-22s %16s %16s %9s %7s  %s\n", "workload", "metric", "run1", "run2", "worse by", "bound", "")
	for i := range a {
		for _, m := range endToEnd {
			va, vb := a[i].metrics[m.Name], b[i].metrics[m.Name]
			gap := worseBy(va, vb, m.Better)
			if g := worseBy(vb, va, m.Better); g > gap {
				gap = g // the two runs are peers: take the wider gap
			}
			verdict := "PASS"
			if gap > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-18s %-22s %16.4f %16.4f %8.2f%% %6.3f%%  %s\n",
				a[i].workload, m.Name, va, vb, 100*gap, 100*m.Bound, verdict)
		}
	}
	return ok
}

// exitCode is 1 when any operation failed or any output differed from the
// reference.
func exitCode(rs []*result) int {
	for _, r := range rs {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload and end with the JSON result line (default: all)")
	seed := flag.Int64("seed", 1, "seed of the reference inputs, the packet traces and the workers' traffic")
	seconds := flag.Float64("seconds", 10, "length of each workload's timed phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run the set this many times; with 2, compare the runs against the bounds")
	flag.Parse()

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if newRunner(*workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive, and there are no positional arguments")
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		e.cleanup()
		os.Exit(130)
	}()

	fmt.Printf("merlin bench: seed=%d seconds=%g trace=%d; closed loop, one client, loopback only (no real link is crossed)\n",
		*seed, *seconds, *trace)
	d := time.Duration(*seconds * float64(time.Second))
	code := 0
	var runs [][]*result
	for rep := 0; rep < *repeat; rep++ {
		var set []*result
		for _, name := range names {
			r, err := runOnce(e, name, *seed, d, *trace == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			r.print(*trace == 1)
			set = append(set, r)
		}
		code = max(code, exitCode(set))
		runs = append(runs, set)
	}
	if *repeat == 2 && *trace != 1 && !compare(runs[0], runs[1]) {
		code = 1
	}
	if *workload != "" {
		fmt.Println(runs[len(runs)-1][0].jsonLine(*trace == 1))
	}
	return code
}
