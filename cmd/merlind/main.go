// Command merlind is the runtime program-lifecycle daemon: it owns named
// program slots, builds deployments through the guarded Merlin pipeline
// (core.BuildForDeploy), takes every candidate through the
// staged → shadow → canary → live state machine of internal/lifecycle, and
// drives synthetic XDP traffic so hot-swaps can be exercised end to end
// without a kernel. Commands arrive as lines on stdin; every command answers
// with one "ok ..." or "err ..." line, and the process exits non-zero if any
// command failed (CI smoke runs rely on this).
//
// Usage:
//
//	merlind [flags] < script
//
// Commands:
//
//	deploy <slot> <file.mir|corpus:NAME> [func]   build + stage a candidate
//	traffic <slot> <n>                            serve n synthetic packets
//	promote <slot> [force]                        hot-swap candidate to live
//	rollback <slot>                               restore previous live program
//	abort <slot>                                  discard the staged candidate
//	drain <slot>                                  remove the slot entirely
//	                                              (controller-driven repair)
//	build <file.mir|corpus:NAME> [func]           run the build service
//	                                              (dedup + artifact cache)
//	cachestats                                    superopt + artifact cache sizes
//	cacheexport [since]                           export one line-sized chunk of
//	                                              the superopt verdicts ≥ since
//	cachemerge <b64>                              union a peer's verdicts in
//	status                                        one line per slot
//	events <slot>                                 dump the slot's event ring
//	maps <slot>                                   dump the live program's maps
//	metrics                                       dump the metrics registry
//	                                              (Prometheus text format)
//	tick                                          let quarantined slots retry,
//	                                              probe a degraded journal
//	quit                                          exit
//
// traffic answers one line, the verdict histogram then the slot's status line
// (the same text `status` prints for it), which is what a fleet controller's
// canary gate judges:
//
//	ok traffic <slot> n=<n> verdicts[<name>=<count> ...] slot=<slot> stage=<stage> live=gen<N> ...
//
// The verbs and the serve loop are fleet.Worker and fleet.Serve in
// internal/fleet; this binary is flags, storage open/recover/re-attach and
// signal wiring around them.
//
// Every layer reports into one metrics registry: the VM (per-run cycles,
// instructions, fault kinds), the build pipeline (per-pass wall time,
// rollbacks, verifier verdicts) and the lifecycle manager (per-slot serve
// and mirror counters, per-EventKind counters drained losslessly from the
// event rings, canary cycle histograms). `metrics` encodes the whole thing.
//
// Flags tune the lifecycle gates: -shadow/-canary (clean mirrored runs per
// stage), -cycle-slack (tolerated canary cycle regression), -insn-budget and
// -cycle-budget (watchdog per-run caps), -retries/-backoff (quarantine
// rebuild policy), -auto-promote, -canary-fraction (hash-routed live share
// answered by the canary), and the usual build knobs (-hook, -mcpu,
// -guard-diff-inputs, -pass-timeout).
//
// With -state-dir the daemon is crash-safe: every mutating command is
// journaled (fsynced on stage transitions), map contents are flushed after
// traffic and on SIGINT/SIGTERM, and on startup the previous state —
// live slots, generations, last-known-good programs, quarantine backoffs,
// map contents — is recovered from the journal and reported as one
// "ok recover ..." line. A corrupt or torn journal degrades to whatever
// prefix was intact (at worst a fresh ledger); it never prevents startup.
// An empty -state-dir (the default) keeps everything in memory. The state
// directory is flock-guarded: a second daemon pointed at the same -state-dir
// fails fast at startup instead of interleaving journal appends.
//
// Every stage transition is fsynced before its command answers; a flush
// appends each slot's state and fsyncs once, so all of it is durable when
// the flush returns. The journal rotates into bounded segments and compacts
// into a snapshot on its own; neither has a flag. If the state dir is
// unavailable at startup (for any reason other than another daemon's
// lock) or fails persistently at runtime, merlind
// keeps serving from memory in a degraded mode — reported by the
// merlin_journal_degraded gauge and the status command — and re-attaches
// with exponential backoff once storage recovers.
//
// With -listen the daemon also serves GET /metrics over HTTP (Prometheus
// text exposition format, same registry as the `metrics` command) and prints
// "ok listen <addr>" with the resolved address, so scripts can pass :0 and
// scrape the chosen port.
//
// With -superopt every deploy additionally runs the caching peephole
// superoptimizer tier (internal/superopt) after the Merlin passes; the
// guarded pipeline and quarantine machinery protect the incumbent exactly as
// they do for the rule-based optimizers. -superopt-cache persists search
// verdicts across restarts (it must be a different directory from
// -state-dir; each is exclusively locked). Without -superopt-cache the
// daemon still keeps a process-wide in-memory verdict cache, so repeated
// builds share verdicts and the cache can be federated (see below).
//
// The build service (internal/buildsvc) answers the `build` verb: a bounded
// worker pool (-build-workers, -build-queue) deduplicates identical
// submissions by content-addressed key and serves repeat builds from a
// journal-framed artifact cache (-build-cache, persistent and exclusively
// locked like the other state directories; empty keeps artifacts in memory).
// A full queue rejects with a typed error instead of blocking the daemon.
// `cachestats` reports cache sizes and how many entries were dropped at open
// as another producer version's; `cacheexport`/`cachemerge` move superopt
// verdict deltas between daemons as base64 blobs, one protocol-line-sized
// chunk at a time (`cacheexport` answers seq=<reached> end=<current>; ask
// again from seq until they meet) — the controller's `fcache` verb drives
// them fleet-wide (pull every worker's delta, merge as a union with loud
// conflict detection, push the merged cache back), so one machine's search
// pays for every machine's build.
//
// The HTTP listener is resilient: if its accept loop dies (fd exhaustion, a
// dying interface) the error is logged and counted (merlin_http_serve_errors
// _total) and the listener re-opens with backoff instead of the goroutine
// silently exiting; `status` reports a "listener addr=... up=..." line.
//
// -src-fault-rate (with -src-fault-seed) interposes the chaos filesystem on
// the deploy source read path, injecting I/O errors at the given rate —
// exercised by CI to prove a failed source read rejects the deploy without
// disturbing the incumbent.
//
// Fleet modes (see internal/fleet and cmd/merlind/fleet.go):
//
//	merlind -controller <addr> [-state-dir DIR] [-listen ADDR]
//	        [-replication R] [-control-token T]
//
// runs the fleet control plane instead of a local lifecycle daemon: workers
// join over TCP, fdeploy drives a fleet-wide rolling deploy through each
// worker's canary gate (halting and rolling back on divergence), ftraffic
// fans packets out over the consistent-hash ring, and with -state-dir the
// controller journals every transition and resumes in-flight rollouts after
// a crash ("ok frecover ..."). Each slot is placed on -replication workers
// (default 2); traffic fails over to surviving replicas and the background
// reconciler re-replicates lost copies through the canary gate. Controller
// commands: join, workers, fleet, placement, fdeploy, fstep, fwait, ftraffic,
// fevents, fmetrics, leave, tick, quit.
//
//	merlind -join <controller-addr> [-name N] [-control ADDR] [-rejoin-every D]
//	        [-control-token T]
//
// runs a worker: the normal lifecycle daemon plus a control listener serving
// the same command set over TCP, announcing itself to the controller every
// -rejoin-every so restarts and healed partitions re-admit it automatically.
// A worker keeps reading stdin too; with no script, it serves until `quit`
// or a signal.
//
// -control-token arms shared-secret authentication on both sides: every
// control/join RPC must open with "auth <token>" (compared in constant time)
// or it is refused with "err unauthorized" and counted in
// merlin_fleet_auth_failures_total. Stdin is the local operator and is never
// challenged.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"merlin/internal/buildsvc"
	"merlin/internal/chaos"
	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/fleet"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

// daemon is the worker process around a fleet.Worker: the Worker answers
// every command; the daemon owns what only the process knows — the source
// read path, build options, and the durable state it must close on exit.
type daemon struct {
	*fleet.Worker
	fs        chaos.FS     // source/objfile read path, fault-injectable
	jlmu      sync.Mutex   // guards jl: the reattach loop sets it concurrently
	jl        *journal.Log // nil while the state dir is unavailable
	buildOpts core.Options
}

// shutdown flushes and closes everything the daemon owns durable state in.
func (d *daemon) shutdown() {
	d.Builds.Close()
	if d.Cache != nil {
		d.Cache.Close()
	}
	d.jlmu.Lock()
	jl := d.jl
	d.jl = nil
	d.jlmu.Unlock()
	if jl != nil {
		jl.Close()
	}
}

// reattachLoop retries opening an unavailable state dir with exponential
// backoff. On success it hands the journal to the lifecycle manager, which
// writes a recovery marker and compacts every slot's current state into the
// snapshot.
func (d *daemon) reattachLoop(dir string) {
	backoff := 250 * time.Millisecond
	for {
		time.Sleep(backoff)
		jl, err := journal.Open(dir)
		if err != nil {
			if backoff *= 2; backoff > time.Minute {
				backoff = time.Minute
			}
			continue
		}
		if err := d.Mgr.AttachJournal(jl); err != nil {
			// Opened but the marker write failed: the manager keeps the
			// journal and probes it on its own backoff schedule from here.
			fmt.Fprintln(os.Stderr, "merlind: journal re-attach probe:", err)
		} else {
			fmt.Fprintln(os.Stderr, "merlind: state dir recovered, journal re-attached")
		}
		d.jlmu.Lock()
		d.jl = jl
		d.jlmu.Unlock()
		return
	}
}

func main() {
	hookName := flag.String("hook", "xdp", "attachment hook for deployed builds")
	mcpu := flag.Int("mcpu", 2, "instruction set level (2 or 3)")
	shadow := flag.Int("shadow", 32, "clean mirrored runs to clear shadow")
	canary := flag.Int("canary", 32, "clean mirrored runs to clear canary")
	cycleSlack := flag.Float64("cycle-slack", 0.10, "tolerated canary cycle-cost regression")
	insnBudget := flag.Uint64("insn-budget", 0, "watchdog per-run instruction cap (0 = off)")
	cycleBudget := flag.Uint64("cycle-budget", 0, "watchdog per-run cycle cap (0 = off)")
	retries := flag.Int("retries", 3, "quarantine rebuild attempts")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "first quarantine backoff (doubles per retry)")
	autoPromote := flag.Bool("auto-promote", false, "hot-swap automatically once canary clears")
	canaryFraction := flag.Float64("canary-fraction", 0, "hash-routed share of live packets answered by a canary (0..1)")
	guardDiff := flag.Int("guard-diff-inputs", 4, "sampled inputs for build-time differential validation")
	passTimeout := flag.Duration("pass-timeout", guard.DefaultTimeout, "per-pass wall-clock budget")
	seed := flag.Int64("seed", 1, "synthetic traffic seed")
	stateDir := flag.String("state-dir", "", "directory for the crash-safe state journal (empty = in-memory)")
	listen := flag.String("listen", "", "serve GET /metrics on this TCP address (empty = no HTTP)")
	useSuperopt := flag.Bool("superopt", false, "run the superoptimizer tier on every deploy build")
	superoptCache := flag.String("superopt-cache", "", "persistent superoptimizer verdict cache directory")
	superoptBudget := flag.Int("superopt-budget", superopt.DefaultBudget, "candidate budget per superoptimizer search")
	buildWorkers := flag.Int("build-workers", 2, "build-service worker pool size")
	buildQueue := flag.Int("build-queue", 16, "build-service queue capacity (unique builds waiting for a worker)")
	buildCache := flag.String("build-cache", "", "persistent content-addressed build-artifact cache directory (empty = in-memory)")
	controller := flag.String("controller", "", "run as fleet controller, listening for workers and commands on this TCP address")
	joinAddr := flag.String("join", "", "announce this worker to a fleet controller at this address")
	workerName := flag.String("name", "", "worker name announced to the controller (default w<pid>)")
	control := flag.String("control", "", "serve the line protocol on this TCP address (default 127.0.0.1:0 with -join)")
	rejoinEvery := flag.Duration("rejoin-every", 2*time.Second, "interval between join announcements to the controller")
	replication := flag.Int("replication", 2, "replicas per slot in controller mode (1 = unreplicated)")
	controlToken := flag.String("control-token", "", "shared secret required on every control/join RPC (empty = open)")
	srcFaultRate := flag.Float64("src-fault-rate", 0, "probability of an injected read fault per source-file operation (0 = off)")
	srcFaultSeed := flag.Int64("src-fault-seed", 1, "seed for the source read fault schedule")
	flag.Parse()

	hooks := map[string]ebpf.HookType{
		"xdp": ebpf.HookXDP, "tracepoint": ebpf.HookTracepoint,
		"kprobe": ebpf.HookKprobe, "socket_filter": ebpf.HookSocketFilter,
	}
	hook, ok := hooks[*hookName]
	fatalIf(!ok, "unknown hook %q", *hookName)
	fatalIf(*passTimeout <= 0, "-pass-timeout must be positive")
	fatalIf(math.IsNaN(*canaryFraction) || *canaryFraction < 0 || *canaryFraction > 1, "-canary-fraction must be in [0, 1], got %v", *canaryFraction)
	fatalIf(*backoff <= 0, "-backoff must be positive, got %v", *backoff)
	fatalIf(*superoptCache != "" && !*useSuperopt, "-superopt-cache requires -superopt")
	fatalIf(*superoptCache != "" && *superoptCache == *stateDir, "-superopt-cache and -state-dir must be different directories (each is exclusively locked)")
	fatalIf(*buildWorkers <= 0, "-build-workers must be positive, got %d", *buildWorkers)
	fatalIf(*buildQueue <= 0, "-build-queue must be positive, got %d", *buildQueue)
	fatalIf(*buildCache != "" && (*buildCache == *stateDir || *buildCache == *superoptCache), "-build-cache must be a different directory from -state-dir and -superopt-cache (each is exclusively locked)")
	fatalIf(math.IsNaN(*srcFaultRate) || *srcFaultRate < 0 || *srcFaultRate > 1, "-src-fault-rate must be in [0, 1], got %v", *srcFaultRate)
	fatalIf(*rejoinEvery <= 0, "-rejoin-every must be positive, got %v", *rejoinEvery)
	fatalIf(*replication < 1, "-replication must be at least 1, got %d", *replication)
	// Tokens and worker names travel inside space-delimited protocol lines;
	// embedded whitespace would split into extra fields on the far side.
	fatalIf(strings.ContainsAny(*controlToken, " \t\r\n"), "-control-token must not contain whitespace")
	fatalIf(strings.ContainsAny(*workerName, " \t\r\n"), "-name must not contain whitespace, got %q", *workerName)

	if *controller != "" {
		fatalIf(*joinAddr != "" || *control != "", "-controller cannot be combined with -join/-control")
		runController(controllerOpts{
			addr:        *controller,
			stateDir:    *stateDir,
			listen:      *listen,
			seed:        *seed,
			replication: *replication,
			token:       *controlToken,
		})
		return
	}
	if *control == "" && *joinAddr != "" {
		*control = "127.0.0.1:0"
	}
	if *workerName == "" {
		*workerName = fmt.Sprintf("w%d", os.Getpid())
	}

	reg := metrics.New()
	d := &daemon{
		Worker: &fleet.Worker{
			Reg:        reg,
			DeployOpts: lifecycle.DeployOptions{CanaryFraction: *canaryFraction},
			Seed:       *seed,
		},
		fs: chaos.OS(),
		buildOpts: core.Options{
			Hook: hook, MCPU: *mcpu, KernelALU32: true,
			GuardDiffInputs: *guardDiff, PassTimeout: *passTimeout,
			Metrics: core.NewMetrics(reg),
		},
	}
	d.Resolve, d.BuildRequest = d.resolveSource, d.buildRequest
	if *srcFaultRate > 0 {
		// Source reads go through a seeded fault injector: deploys see the
		// EIO read failures a real disk produces, and the deploy path (not
		// the incumbent program) absorbs them.
		d.fs = chaos.Wrap(chaos.OS(), chaos.NewRate(*srcFaultSeed, *srcFaultRate, chaos.EIO))
	}
	if *useSuperopt {
		socfg := &superopt.Config{
			Budget:  *superoptBudget,
			Metrics: superopt.NewMetrics(reg),
		}
		if *superoptCache != "" {
			cache, err := superopt.OpenCache(*superoptCache)
			fatalIf(err != nil, "-superopt-cache: %v", err)
			d.Cache = cache
		} else {
			// A process-wide in-memory cache: repeated builds share verdicts
			// and cacheexport/cachemerge (fleet federation) have something to
			// export even without persistence.
			d.Cache = superopt.NewMemCache()
		}
		socfg.Cache = d.Cache
		d.buildOpts.Superopt = socfg
	}
	bcfg := buildsvc.Config{
		Workers: *buildWorkers,
		Queue:   *buildQueue,
		Metrics: buildsvc.NewMetrics(reg),
	}
	if *buildCache != "" {
		acache, err := buildsvc.OpenArtifactCache(*buildCache)
		if err != nil {
			// journal.ErrLocked names the holder pid; any open failure is a
			// misconfiguration, so fail fast like -superopt-cache does.
			fmt.Fprintln(os.Stderr, "merlind: -build-cache:", err)
			os.Exit(2)
		}
		bcfg.Cache = acache
	}
	d.Builds = buildsvc.New(bcfg)
	cfg := lifecycle.Config{
		ShadowRuns:  *shadow,
		CanaryRuns:  *canary,
		CycleSlack:  *cycleSlack,
		InsnBudget:  *insnBudget,
		CycleBudget: *cycleBudget,
		MaxRetries:  *retries,
		BackoffBase: *backoff,
		AutoPromote: *autoPromote,
		Metrics:     reg,
		VM:          vm.Config{Seed: uint64(*seed), Metrics: vm.NewMetrics(reg)},
	}
	var degradedReason string
	if *stateDir != "" {
		jl, err := journal.Open(*stateDir)
		switch {
		case err == nil:
			d.jl = jl
			cfg.Journal = jl
		case errors.Is(err, journal.ErrLocked):
			// Another daemon owns the state dir; interleaving appends would
			// corrupt it, so this stays fatal.
			fmt.Fprintln(os.Stderr, "merlind: -state-dir:", err)
			os.Exit(2)
		default:
			// Storage is broken, not contended: serve in-memory (degraded)
			// and keep retrying in the background rather than refusing to
			// start.
			fmt.Fprintln(os.Stderr, "merlind: -state-dir unavailable, serving in-memory (degraded):", err)
			degradedReason = err.Error()
		}
		cfg.ResolveSource = d.resolveSource
	}
	d.Mgr = lifecycle.NewManager(cfg)
	if *stateDir != "" && d.jl == nil {
		d.Mgr.MarkJournalUnavailable(degradedReason)
	}

	if d.jl != nil {
		rs, err := d.Mgr.Recover()
		if err != nil {
			// Only impossible configuration errors land here; corrupt state
			// is degraded and counted inside Recover.
			fmt.Fprintln(os.Stderr, "merlind: recover:", err)
			os.Exit(2)
		}
		if rs.CorruptRecords > 0 {
			fmt.Fprintf(os.Stderr, "merlind: state recovered with %d corrupt records discarded\n",
				rs.CorruptRecords)
		}
		fmt.Printf("ok recover %s\n", rs)
		for _, st := range d.Mgr.Status() {
			fmt.Println(st)
		}
	}

	if *stateDir != "" && d.jl == nil {
		// Launched only after the startup reads of d.jl above: from here on
		// the field is accessed under jlmu.
		go d.reattachLoop(*stateDir)
	}

	serveMode := *control != ""
	if *stateDir != "" || serveMode {
		// A flush on SIGINT/SIGTERM captures map mutations since the last
		// transition, then compacts so the next boot replays one snapshot.
		// Installed even when storage is degraded: the journal may have
		// re-attached by the time the signal arrives. In serve mode the
		// signal is also the only orderly way out once stdin has drained.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigc
			if err := d.Mgr.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "merlind: flush on shutdown:", err)
				os.Exit(1)
			}
			d.Mgr.Compact()
			d.shutdown()
			os.Exit(0)
		}()
	}

	if *listen != "" {
		d.HTTP = serveMetricsHTTP(*listen, reg, d.WriteMetrics)
	}

	if serveMode {
		ln, err := net.Listen("tcp", *control)
		fatalIf(err != nil, "-control: %v", err)
		// The controller keeps its connections open (fleet.TCP), so a healthy
		// fleet shows merlin_control_connections_total far below
		// merlin_control_rpcs_total.
		d.Auth = fleet.NewAuth(*controlToken, reg)
		rpcs := reg.Counter("merlin_control_rpcs_total", "control lines dispatched")
		go fleet.Listen(ln, &d.Auth, func(w io.Writer, line string) error {
			rpcs.Inc()
			return d.Dispatch(w, line)
		}, reg.Counter("merlin_control_connections_total", "control connections accepted"))
		fmt.Printf("ok control %s\n", ln.Addr())
		if *joinAddr != "" {
			join := fleet.AuthLine(*controlToken, fmt.Sprintf("join %s %s", *workerName, ln.Addr()))
			go announceLoop(*joinAddr, join, *rejoinEvery)
		}
	}

	// Stdin is the local operator and is never challenged.
	failed, quit, err := fleet.Serve(os.Stdin, os.Stdout, nil, operator(d.Dispatch))
	fatalIf(err != nil, "stdin: %v", err)
	if serveMode && !quit {
		// The control listener outlives a closed stdin: a worker launched
		// with its input redirected from /dev/null keeps serving the fleet
		// until signaled. An explicit quit still exits.
		select {}
	}
	if *stateDir != "" {
		if err := d.Mgr.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "merlind: flush on exit:", err)
			failed = true
		}
		d.Mgr.Compact()
	}
	d.shutdown()
	if failed {
		os.Exit(1)
	}
}

// fatalIf exits 2 with a "merlind: ..." line on stderr when bad holds: the one
// shape of every flag-validation and startup failure.
func fatalIf(bad bool, format string, args ...any) {
	if bad {
		fmt.Fprintf(os.Stderr, "merlind: "+format+"\n", args...)
		os.Exit(2)
	}
}

// operator adapts a face's dispatcher to the local operator's stdin, where
// scripts carry # comments and end with quit.
func operator(dispatch fleet.DispatchFunc) fleet.DispatchFunc {
	return func(w io.Writer, line string) error {
		switch {
		case strings.HasPrefix(line, "#"):
			return nil
		case line == "quit":
			return fleet.ErrQuit
		}
		return dispatch(w, line)
	}
}

// serveMetricsHTTP serves GET /metrics (Prometheus text exposition format,
// produced by write) on addr and announces the resolved address so scripts
// can pass :0 and scrape the chosen port. The serve loop is resilient: an
// accept-loop death is counted, logged, and the listener re-opened — the
// process never silently loses its scrape endpoint while it lives on.
func serveMetricsHTTP(addr string, reg *metrics.Registry, write func(io.Writer) error) *metrics.ResilientServer {
	ln, err := net.Listen("tcp", addr)
	fatalIf(err != nil, "-listen: %v", err)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = write(w) // the response is already streaming; nothing useful left to do
	})
	fmt.Printf("ok listen %s\n", ln.Addr())
	srv := &metrics.ResilientServer{
		ServeErrors: reg.Counter("merlin_http_serve_errors_total",
			"http accept-loop deaths survived by re-listening"),
		OnError: func(err error) { fmt.Fprintln(os.Stderr, "merlind: http:", err) },
	}
	go srv.Serve(ln, mux)
	return srv
}

// operand is a resolved "<file.mir|corpus:NAME> [func]" descriptor: what
// deploy, build and journal recovery all start from.
type operand struct {
	mod  *ir.Module
	text []byte // the file's IR text; nil for corpus programs (buildRequest prints them)
	fn   string
	opts core.Options
}

func (d *daemon) resolveOperand(desc string) (operand, error) {
	fields := strings.Fields(desc)
	if len(fields) == 0 {
		return operand{}, fmt.Errorf("empty source descriptor")
	}
	op := operand{opts: d.buildOpts}
	if name, ok := strings.CutPrefix(fields[0], "corpus:"); ok {
		spec := findCorpus(name)
		if spec == nil {
			return operand{}, fmt.Errorf("no corpus program %q", name)
		}
		op.mod, op.fn = spec.Mod, spec.Func
		op.opts.Hook, op.opts.MCPU = spec.Hook, spec.MCPU
	} else {
		text, err := chaos.ReadFile(d.fs, fields[0])
		if err != nil {
			return operand{}, err
		}
		mod, err := ir.Parse(string(text))
		if err != nil {
			return operand{}, err
		}
		if len(mod.Funcs) == 0 {
			return operand{}, fmt.Errorf("module has no functions")
		}
		op.mod, op.text, op.fn = mod, text, mod.Funcs[0].Name
	}
	if len(fields) > 1 {
		op.fn = fields[1]
	}
	return op, nil
}

// resolveSource backs both the deploy command and lifecycle's ResolveSource,
// so a journaled SourceDesc rebuilds exactly like the deploy that produced it.
func (d *daemon) resolveSource(desc string) (lifecycle.Source, error) {
	op, err := d.resolveOperand(desc)
	if err != nil {
		return nil, err
	}
	return lifecycle.ModuleSource(op.mod, op.fn, op.opts), nil
}

// buildRequest resolves a build operand into a content-addressed request.
func (d *daemon) buildRequest(desc string) (buildsvc.Request, error) {
	op, err := d.resolveOperand(desc)
	if err != nil {
		return buildsvc.Request{}, err
	}
	if op.text == nil {
		// A corpus program's source is its canonical text, so the same
		// program submitted on two daemons shares one build key.
		op.text = []byte(ir.Print(op.mod))
	}
	return buildsvc.Request{Source: op.text, Func: op.fn, Opts: op.opts}, nil
}

// xdpCorpus generates (and validates) the corpus once per process: deploys,
// builds and journal re-attaches of corpus: operands share the modules, which
// core.Build never mutates.
var xdpCorpus = sync.OnceValue(corpus.XDP)

func findCorpus(name string) *corpus.ProgramSpec {
	for _, spec := range xdpCorpus() {
		if spec.Name == name {
			return spec
		}
	}
	return nil
}
