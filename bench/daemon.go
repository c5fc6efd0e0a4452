package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/fleet"
	"merlin/internal/guard"
	"merlin/internal/lifecycle"
	"merlin/internal/vm"
)

// worker is one real merlind process serving its line protocol on a
// loopback port, started with default flags (in-memory state).
type worker struct {
	e      *env
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for
	peak   float64       // VmHWM in MiB, read just before the process is stopped

	mu     sync.Mutex
	stderr bytes.Buffer
}

type lockedWriter struct{ w *worker }

func (l lockedWriter) Write(p []byte) (int, error) {
	l.w.mu.Lock()
	defer l.w.mu.Unlock()
	return l.w.stderr.Write(p)
}

// buildMerlind compiles cmd/merlind into dir.
func buildMerlind(e *env, dir string) (string, error) {
	bin := filepath.Join(dir, "merlind")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/merlind")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/merlind: %v\n%s", err, out)
	}
	return bin, nil
}

// startWorker launches merlind -control 127.0.0.1:0 and reads the address it
// chose from its "ok control …" line.
func startWorker(e *env, bin string, seed int64) (*worker, error) {
	w := &worker{e: e, exited: make(chan struct{})}
	w.cmd = exec.Command(bin, "-control", "127.0.0.1:0", "-seed", strconv.FormatInt(seed, 10))
	w.cmd.Stderr = lockedWriter{w}
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := w.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.workers[w] = true
	e.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ok control "); ok {
				addrc <- a
			}
		}
		w.cmd.Wait() // reaps the process; stop and failure report the outcome
		close(w.exited)
	}()
	select {
	case w.addr = <-addrc:
		return w, nil
	case <-w.exited:
		err = w.failure(fmt.Errorf("exited before announcing its control address"))
	case <-time.After(20 * time.Second):
		err = w.failure(fmt.Errorf("no control address after 20s"))
	}
	w.stop()
	return nil, err
}

// failure wraps err with what is known about the process: whether it has
// died, and what it wrote to standard error.
func (w *worker) failure(err error) error {
	state := "still running"
	select {
	case <-w.exited:
		state = "exited: " + w.cmd.ProcessState.String()
	case <-time.After(time.Second): // a dying process is reaped a moment after its socket closes
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return fmt.Errorf("merlind worker %s (%s): %w; stderr: %q", w.addr, state, err, w.stderr.String())
}

// stop terminates the worker and waits until it has gone.
func (w *worker) stop() {
	w.e.mu.Lock()
	delete(w.e.workers, w)
	w.e.mu.Unlock()
	select {
	case <-w.exited:
		return
	default:
	}
	w.peak = max(w.peak, procRSS(w.cmd.Process.Pid))
	w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(3 * time.Second):
		w.cmd.Process.Kill()
		<-w.exited
	}
}

// rpcTimeout bounds one RPC; a dead worker fails the run instead of hanging it.
const rpcTimeout = 10 * time.Second

// rpc sends one line over fleet.TCP and requires an "ok" reply.
func (w *worker) rpc(tcp *fleet.TCP, line string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	lines, err := tcp.RPC(ctx, w.addr, line)
	if err != nil {
		return "", w.failure(fmt.Errorf("rpc %q: %w", line, err))
	}
	last, ok := fleet.ReplyOK(lines)
	if !ok {
		return "", w.failure(fmt.Errorf("rpc %q answered %q", line, strings.Join(lines, " | ")))
	}
	return last, nil
}

// daemonRunner is serve-fleet (controller over two workers, 8-packet chunks)
// and serve-daemon-bulk (one worker, 4096-packet traffic RPCs).
type daemonRunner struct {
	fleet   bool
	e       *env
	seed    int64
	dir     string
	workers []*worker
	ctl     *fleet.Controller
	tcp     *fleet.TCP
	slots   []string
	progs   []built
	next    int   // round-robin slot cursor
	offset  int64 // packets the bulk worker has generated so far
	refs    []*vm.RefMachine
	deploy  []float64 // ms per deploy RPC or rollout

	rerouted, dropped int // summed over Controller.Traffic reports
}

// chunk is the packets per traffic RPC.
func (dr *daemonRunner) chunk() int {
	if dr.fleet {
		return 8 // fleet.Config's default TrafficBatch
	}
	return 4096
}

func (dr *daemonRunner) setup(e *env, seed int64) error {
	dr.e, dr.seed, dr.tcp = e, seed, &fleet.TCP{Dialer: dialer}
	var err error
	if dr.dir, err = e.tempDir("merlind"); err != nil {
		return err
	}
	bin, err := buildMerlind(e, dr.dir)
	if err != nil {
		return err
	}
	n := 1
	if dr.fleet {
		n = 2
	}
	for i := 0; i < n; i++ {
		w, err := startWorker(e, bin, seed)
		if err != nil {
			return err
		}
		dr.workers = append(dr.workers, w)
	}
	specs, err := xdpByName(fleetPrograms)
	if err != nil {
		return err
	}
	if dr.fleet {
		dr.ctl = fleet.New(fleet.Config{Replication: 2, Seed: uint64(seed) | 1}, dr.tcp)
		for i, w := range dr.workers {
			if err := dr.ctl.Join(fmt.Sprintf("w%d", i), w.addr); err != nil {
				return w.failure(err)
			}
		}
	}
	for i, spec := range specs {
		slot := fmt.Sprintf("s%d", i)
		t0 := time.Now()
		if dr.fleet {
			if err := dr.rollout(slot, "corpus:"+spec.Name); err != nil {
				return err
			}
		} else if _, err := dr.workers[0].rpc(dr.tcp, "deploy "+slot+" corpus:"+spec.Name); err != nil {
			return err
		}
		dr.deploy = append(dr.deploy, ms(time.Since(t0)))
		dr.slots = append(dr.slots, slot)
		// The same build in-process, for the exact metrics and the reference.
		res, err := core.BuildForDeploy(spec.Mod, spec.Func, workerOpts(spec))
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		dr.progs = append(dr.progs, built{spec: spec, opt: res.Prog, base: res.Baseline})
		ref, err := vm.NewRef(res.Baseline, vm.Config{Seed: uint64(seed)})
		if err != nil {
			return err
		}
		dr.refs = append(dr.refs, ref)
	}
	return nil
}

// rollout drives a fleet-wide deploy to completion.
func (dr *daemonRunner) rollout(slot, src string) error {
	if err := dr.ctl.Deploy(slot, src); err != nil {
		return err
	}
	for step := 0; step < 1000; step++ {
		done, err := dr.ctl.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if ro := dr.ctl.RolloutStatus(); ro == nil || ro.Phase != fleet.PhaseDone {
		return dr.workers[0].failure(fmt.Errorf("rollout of %s did not complete: %+v", slot, ro))
	}
	return nil
}

func (dr *daemonRunner) close() {
	for _, w := range dr.workers {
		w.stop()
	}
	os.RemoveAll(dr.dir)
}

// childRSS is the workers' summed peak resident set.
func (dr *daemonRunner) childRSS() (sum, peak float64) {
	for _, w := range dr.workers {
		w.peak = max(w.peak, procRSS(w.cmd.Process.Pid))
		sum += w.peak
		peak = max(peak, w.peak)
	}
	return sum, peak
}

var verdictRE = regexp.MustCompile(`verdicts\[([^\]]*)\]`)

// parseVerdicts reads the histogram off a worker's traffic reply.
func parseVerdicts(reply string) (map[string]int, error) {
	m := verdictRE.FindStringSubmatch(reply)
	if m == nil {
		return nil, fmt.Errorf("no verdicts in %q", reply)
	}
	out := map[string]int{}
	for _, kv := range strings.Fields(m[1]) {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad verdict %q in %q", kv, reply)
		}
		out[k] = n
	}
	return out, nil
}

var xdpNames = map[int64]string{
	ebpf.XDPAborted: "aborted", ebpf.XDPDrop: "drop", ebpf.XDPPass: "pass",
	ebpf.XDPTx: "tx", ebpf.XDPRedirect: "redirect",
}

// referenceVerdicts runs the reply's packets — the worker draws them from
// guard.Inputs(seed+offset) — through the slot's baseline program on the
// reference interpreter and returns the histogram the reply must carry.
func referenceVerdicts(ref *vm.RefMachine, n int, seed int64) (map[string]int, error) {
	out := map[string]int{}
	for _, in := range guard.Inputs(ebpf.HookXDP, n, seed) {
		rv, _, err := ref.Run(in.Ctx, in.Pkt)
		if err != nil {
			return nil, err
		}
		name, ok := xdpNames[rv]
		if !ok {
			name = strconv.FormatInt(rv, 10)
		}
		out[name]++
	}
	return out, nil
}

// checkVerdicts compares a traffic reply with the reference histogram.
func checkVerdicts(reply string, want map[string]int) error {
	got, err := parseVerdicts(reply)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("verdicts %v, reference %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("verdicts %v, reference %v", got, want)
		}
	}
	return nil
}

// checkedChunks is how many leading traffic replies per slot the bulk
// workload recomputes on the reference. Checking every reply would cost five
// times the serving time (the reference interpreter is that much slower), and
// a slot's map state makes a reply checkable only after all earlier ones.
const checkedChunks = 3

// op is one traffic RPC on the next slot in round-robin order.
func (dr *daemonRunner) op(w *window, r *result) error {
	slot := dr.next % len(dr.slots)
	dr.next++
	n := dr.chunk()
	r.attempted++
	if dr.fleet {
		var rep fleet.TrafficReport
		timeOp(w, func() error { rep = dr.ctl.Traffic(dr.slots[slot], n); return nil })
		w.units += rep.Sent
		dr.rerouted += rep.Rerouted
		dr.dropped += rep.Dropped
		if rep.Sent != n || rep.Dropped != 0 {
			r.fail(1, "Traffic(%s, %d) = %+v", dr.slots[slot], n, rep)
			return dr.alive()
		}
		return nil
	}
	var reply string
	err := timeOp(w, func() (err error) {
		reply, err = dr.workers[0].rpc(dr.tcp, fmt.Sprintf("traffic %s %d", dr.slots[slot], n))
		return err
	})
	if err != nil {
		return err
	}
	dr.offset += int64(n)
	if !strings.Contains(reply, fmt.Sprintf(" n=%d ", n)) {
		r.fail(1, "traffic reply %q does not carry n=%d", reply, n)
	}
	w.units += n
	return nil
}

// alive fails the workload when a worker has died, with its stderr.
func (dr *daemonRunner) alive() error {
	for _, w := range dr.workers {
		select {
		case <-w.exited:
			return w.failure(fmt.Errorf("died mid-run"))
		default:
		}
	}
	return nil
}

// warmup sends the first RPCs. On the bulk workload it checks the leading
// replies of every slot against the reference.
func (dr *daemonRunner) warmup(r *result) error {
	var w window
	if dr.fleet {
		for i := 0; i < 200; i++ {
			if err := dr.op(&w, r); err != nil {
				return err
			}
		}
		return nil
	}
	n := dr.chunk()
	for i := 0; i < checkedChunks*len(dr.slots); i++ {
		slot := i % len(dr.slots)
		reply, err := dr.workers[0].rpc(dr.tcp, fmt.Sprintf("traffic %s %d", dr.slots[slot], n))
		if err != nil {
			return err
		}
		want, err := referenceVerdicts(dr.refs[slot], n, dr.seed+dr.offset)
		if err != nil {
			return err
		}
		dr.offset += int64(n)
		r.attempted++
		if err := checkVerdicts(reply, want); err != nil {
			r.fail(1, "slot %s (%s): %v", dr.slots[slot], dr.progs[slot].spec.Name, err)
		}
	}
	r.note("reference check: first %d traffic replies of each slot recomputed on vm.NewRef(baseline)", checkedChunks)
	return nil
}

func (dr *daemonRunner) measure(d time.Duration, r *result) error {
	if err := dr.warmup(r); err != nil {
		return err
	}
	ws, err := runWindows(d, timedWindows, func(_ int, w *window) error { return dr.op(w, r) })
	if err != nil {
		return err
	}
	if err := dr.alive(); err != nil {
		return err
	}
	r.setSummary(summarize(ws))
	r.setQuality(assess(dr.progs, dr.seed))
	r.childRSS, _ = dr.childRSS()
	return nil
}

// dialer is the client side of every connection the benchmark opens to a
// worker. fleet.TCP opens one connection per RPC and closes it first, which
// leaves a TIME_WAIT socket on the client's port for a minute; at 750 RPCs a
// second they pile up to tens of thousands, connect slows down with their
// number, and serve-fleet's throughput fell by a sixth over four runs in a
// row — a run measured what the runs before it had left on the host. With
// SO_LINGER at zero the close resets the connection and leaves nothing
// behind; the reply has been read in full by then, and the worker ends the
// connection on the reset as it does on end of file.
var dialer = net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptLinger(int(fd), syscall.SOL_SOCKET, syscall.SO_LINGER, &syscall.Linger{Onoff: 1})
	})
	if err != nil {
		return err
	}
	return serr
}}

// dial is a bare TCP connect and close to the worker's port.
func dial(addr string) error {
	c, err := dialer.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return c.Close()
}

// stubTransport answers every RPC at once, so that what remains of
// Controller.Traffic is the controller's own routing and bookkeeping.
type stubTransport struct{}

func (stubTransport) RPC(_ context.Context, _, line string) ([]string, error) {
	verb, _, _ := strings.Cut(line, " ")
	return []string{"ok " + verb}, nil
}

func (dr *daemonRunner) layers(d time.Duration, tr *tracer, r *result) error {
	if err := dr.warmup(r); err != nil {
		return err
	}
	spanName := "fleet.TCP.RPC traffic"
	if dr.fleet {
		spanName = "fleet.Controller.Traffic"
	}
	e2e, err := tracedWindows(d/2, tr, r, spanName, func(w *window) error { return dr.op(w, r) })
	if err != nil {
		return err
	}
	if err := dr.alive(); err != nil {
		return err
	}
	r.set("fleet.rerouted", float64(dr.rerouted))
	r.set("fleet.dropped", float64(dr.dropped))
	n := float64(dr.chunk())
	w0 := dr.workers[0]

	// The transport and the daemon's dispatcher alone.
	var dials, noops, drives []float64
	tr.request()
	for i := 0; i < 300; i++ {
		var err error
		dials = append(dials, us(tr.timed("fleet.tcp_dial", func() { err = dial(w0.addr) })))
		if err != nil {
			return w0.failure(err)
		}
	}
	for i := 0; i < 1000; i++ {
		var lines []string
		var err error
		ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
		noops = append(noops, us(tr.timed("fleet.tcp_rpc_noop", func() { lines, err = dr.tcp.RPC(ctx, w0.addr, "noop") })))
		cancel()
		if _, isErr := fleet.ReplyErr(lines); err != nil || !isErr {
			return w0.failure(fmt.Errorf("noop rpc answered %q, %v", lines, err))
		}
	}
	for i := 0; i < 200; i++ {
		var err error
		line := fmt.Sprintf("traffic %s %d", dr.slots[i%len(dr.slots)], dr.chunk())
		drives = append(drives, us(tr.timed("fleet.tcp_rpc_traffic", func() { _, err = w0.rpc(dr.tcp, line) })))
		if err != nil {
			return err
		}
		dr.offset += int64(dr.chunk())
	}
	dialUS, noop := median(dials), median(noops)
	r.set("fleet.tcp_dial_us", dialUS)
	r.set("fleet.tcp_rpc_noop_us", noop)
	r.set("fleet.tcp_rpc_noop_p99_us", percentile(noops, 99))
	r.set("merlind.dispatch_us", noop-dialUS)
	r.set("merlind.drive_us_per_chunk", median(drives)-noop)
	_, peak := dr.childRSS()
	r.set("merlind.rss_mb", peak)

	route := 0.0
	if dr.fleet {
		// The controller's own routing: the same call over a transport that
		// answers at once.
		stub := fleet.New(fleet.Config{Replication: 2, Seed: uint64(dr.seed) | 1}, stubTransport{})
		for i := range dr.workers {
			if err := stub.Join(fmt.Sprintf("w%d", i), "stub"); err != nil {
				return err
			}
		}
		var routes []float64
		for i := 0; i < 2000; i++ {
			var rep fleet.TrafficReport
			routes = append(routes, us(tr.timed("fleet.route", func() { rep = stub.Traffic(dr.slots[i%len(dr.slots)], dr.chunk()) })))
			if rep.Sent != dr.chunk() {
				return fmt.Errorf("stub Traffic = %+v", rep)
			}
		}
		route = median(routes)
		r.set("fleet.route_us_per_chunk", route)
	}

	// What the worker does per packet, timed in-process on the same programs:
	// input synthesis, Manager.Serve, the machine under it, and the flush
	// that ends every traffic command.
	inputsNS, _ := sweepNS(tr, "guard.Inputs", dr.chunk(), func() {}, func() error {
		guard.Inputs(ebpf.HookXDP, dr.chunk(), dr.seed)
		return nil
	})
	r.set("guard.inputs_ns_per_pkt", inputsNS)
	packets := inputPackets(guard.Inputs(ebpf.HookXDP, 512, dr.seed))
	if err := vmLayers(tr, r, dr.progs, packets, dr.seed); err != nil {
		return err
	}
	if err := metricsLayers(tr, r); err != nil {
		return err
	}
	mgr := lifecycle.NewManager(managerConfig(dr.seed, false))
	var specs []*corpus.ProgramSpec
	for _, b := range dr.progs {
		specs = append(specs, b.spec)
	}
	_, deployMS, err := deployAll(mgr, specs, workerOpts, false)
	if err != nil {
		return err
	}
	r.set("lifecycle.deploy_ms", median(deployMS))
	var sets []*packetSet
	for range specs {
		sets = append(sets, newPacketSet(packets))
	}
	serveNS, err := sweepNS(tr, "lifecycle.Serve sweep", len(packets)*len(specs), func() {
		for _, ps := range sets {
			ps.restore()
		}
	}, func() error {
		for p, spec := range specs {
			for i := range sets[p].pkts {
				if _, _, err := mgr.Serve(spec.Name, sets[p].ctxs[i], sets[p].pkts[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	flushNS, err := sweepNS(tr, "lifecycle.Flush", 1, func() {}, mgr.Flush)
	if err != nil {
		return err
	}
	run := r.metrics["vm.run_ns_per_pkt"]
	r.set("lifecycle.serve_ns_per_pkt", serveNS)
	r.set("lifecycle.overhead_ns_per_pkt", serveNS-run)
	r.set("lifecycle.flush_us", flushNS/1e3)
	parts := map[string]float64{
		"fleet.tcp_dial_us/n":           1e3 * dialUS / n,
		"merlind.dispatch_us/n":         1e3 * (noop - dialUS) / n,
		"guard.inputs_ns_per_pkt":       inputsNS,
		"lifecycle.overhead_ns_per_pkt": serveNS - run,
		"vm.run_ns_per_pkt":             run,
		"lifecycle.flush_us/n":          flushNS / n,
	}
	if dr.fleet {
		parts["fleet.route_us_per_chunk/n"] = 1e3 * route / n
	}
	setUnattributed(r, e2e, parts)
	return nil
}
