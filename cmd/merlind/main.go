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
//	                                              (controller-driven rebalance)
//	build <file.mir|corpus:NAME> [func]           run the build service
//	                                              (dedup + artifact cache)
//	cachestats                                    superopt + artifact cache sizes
//	cacheexport [since]                           export superopt verdicts ≥ since
//	cachemerge <b64>                              union a peer's verdicts in
//	status                                        one line per slot
//	events <slot>                                 dump the slot's event ring
//	maps <slot>                                   dump the live program's maps
//	metrics                                       dump the metrics registry
//	                                              (Prometheus text format)
//	tick                                          let quarantined slots retry
//	quit                                          exit
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
// The journal rotates into bounded segments (-journal-segment-bytes) and its
// durability is tunable with -fsync-policy: sync-every-record (default),
// group-commit (a background committer batches fsyncs every -fsync-interval
// or -fsync-batch records), or async (fsync only on stage transitions and
// compaction). Stage transitions are individually fsynced under every
// policy. If the state dir is unavailable at startup (for any reason other
// than another daemon's lock) or fails persistently at runtime, merlind
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
// `cachestats` reports cache sizes; `cacheexport`/`cachemerge` move superopt
// verdict deltas between daemons as base64 blobs — the controller's `fcache`
// verb drives them fleet-wide (pull every worker's delta, merge as a union
// with loud conflict detection, push the merged cache back), so one
// machine's search pays for every machine's build.
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
// (default 2); traffic fails over to surviving replicas and a background
// rebalancer re-replicates lost copies through the canary gate. Controller
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
	"bufio"
	"encoding/base64"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"merlin/internal/buildsvc"
	"merlin/internal/chaos"
	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/journal"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

type daemon struct {
	// mu serializes command dispatch: stdin and every control-listener
	// connection share one daemon, and a command's reply lines must not
	// interleave with another's manager mutations.
	mu         sync.Mutex
	mgr        *lifecycle.Manager
	reg        *metrics.Registry
	fs         chaos.FS        // source/objfile read path, fault-injectable
	jlmu       sync.Mutex      // guards jl: the reattach loop sets it concurrently
	jl         *journal.Log    // nil while the state dir is unavailable
	socache    *superopt.Cache // nil unless -superopt (persistent or in-memory)
	bsvc       *buildsvc.Service
	httpSrv    *metrics.ResilientServer
	buildOpts  core.Options
	deployOpts lifecycle.DeployOptions
	seed       int64
	traffic    int64            // packets generated so far, advances the input stream
	driver     lifecycle.Driver // reused ServeBatch buffers of the traffic command
	token      string           // control-listener shared secret; "" accepts everything
}

// shutdown flushes and closes everything the daemon owns durable state in.
func (d *daemon) shutdown() {
	if d.bsvc != nil {
		d.bsvc.Close()
		d.bsvc = nil
	}
	if d.socache != nil {
		d.socache.Close()
		d.socache = nil
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
// writes a recovery marker and re-journals every slot's current state.
func (d *daemon) reattachLoop(dir string, o journal.Options) {
	backoff := 250 * time.Millisecond
	for {
		time.Sleep(backoff)
		jl, err := journal.OpenWith(dir, o)
		if err != nil {
			if backoff *= 2; backoff > time.Minute {
				backoff = time.Minute
			}
			continue
		}
		if err := d.mgr.AttachJournal(jl); err != nil {
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
	compactEvery := flag.Int("compact-every", 256, "journal records between snapshot compactions")
	fsyncPolicy := flag.String("fsync-policy", "sync-every-record",
		"journal durability policy: sync-every-record | group-commit | async (stage transitions always fsync)")
	fsyncInterval := flag.Duration("fsync-interval", 2*time.Millisecond, "group-commit background flush interval")
	fsyncBatch := flag.Int("fsync-batch", 32, "group-commit max unsynced records before an inline flush")
	segmentBytes := flag.Int64("journal-segment-bytes", journal.DefaultSegmentBytes,
		"journal segment rotation threshold in bytes")
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
	if !ok {
		fmt.Fprintf(os.Stderr, "merlind: unknown hook %q\n", *hookName)
		os.Exit(2)
	}
	if *passTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "merlind: -pass-timeout must be positive")
		os.Exit(2)
	}
	if math.IsNaN(*canaryFraction) || *canaryFraction < 0 || *canaryFraction > 1 {
		fmt.Fprintf(os.Stderr, "merlind: -canary-fraction must be in [0, 1], got %v\n", *canaryFraction)
		os.Exit(2)
	}
	if *compactEvery <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -compact-every must be positive, got %d\n", *compactEvery)
		os.Exit(2)
	}
	if *backoff <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -backoff must be positive, got %v\n", *backoff)
		os.Exit(2)
	}
	pol, err := journal.ParsePolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlind: -fsync-policy:", err)
		os.Exit(2)
	}
	if *fsyncInterval <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -fsync-interval must be positive, got %v\n", *fsyncInterval)
		os.Exit(2)
	}
	if *fsyncBatch <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -fsync-batch must be positive, got %d\n", *fsyncBatch)
		os.Exit(2)
	}
	if *segmentBytes <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -journal-segment-bytes must be positive, got %d\n", *segmentBytes)
		os.Exit(2)
	}
	pol.Interval, pol.MaxBatch = *fsyncInterval, *fsyncBatch
	if *superoptCache != "" && !*useSuperopt {
		fmt.Fprintln(os.Stderr, "merlind: -superopt-cache requires -superopt")
		os.Exit(2)
	}
	if *superoptCache != "" && *superoptCache == *stateDir {
		fmt.Fprintln(os.Stderr, "merlind: -superopt-cache and -state-dir must be different directories (each is exclusively locked)")
		os.Exit(2)
	}
	if *buildWorkers <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -build-workers must be positive, got %d\n", *buildWorkers)
		os.Exit(2)
	}
	if *buildQueue <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -build-queue must be positive, got %d\n", *buildQueue)
		os.Exit(2)
	}
	if *buildCache != "" && (*buildCache == *stateDir || *buildCache == *superoptCache) {
		fmt.Fprintln(os.Stderr, "merlind: -build-cache must be a different directory from -state-dir and -superopt-cache (each is exclusively locked)")
		os.Exit(2)
	}
	if math.IsNaN(*srcFaultRate) || *srcFaultRate < 0 || *srcFaultRate > 1 {
		fmt.Fprintf(os.Stderr, "merlind: -src-fault-rate must be in [0, 1], got %v\n", *srcFaultRate)
		os.Exit(2)
	}
	if *rejoinEvery <= 0 {
		fmt.Fprintf(os.Stderr, "merlind: -rejoin-every must be positive, got %v\n", *rejoinEvery)
		os.Exit(2)
	}
	if *replication < 1 {
		fmt.Fprintf(os.Stderr, "merlind: -replication must be at least 1, got %d\n", *replication)
		os.Exit(2)
	}
	// Tokens and worker names travel inside space-delimited protocol lines;
	// embedded whitespace would split into extra fields on the far side.
	if strings.ContainsAny(*controlToken, " \t\r\n") {
		fmt.Fprintln(os.Stderr, "merlind: -control-token must not contain whitespace")
		os.Exit(2)
	}
	if strings.ContainsAny(*workerName, " \t\r\n") {
		fmt.Fprintf(os.Stderr, "merlind: -name must not contain whitespace, got %q\n", *workerName)
		os.Exit(2)
	}

	if *controller != "" {
		if *joinAddr != "" || *control != "" {
			fmt.Fprintln(os.Stderr, "merlind: -controller cannot be combined with -join/-control")
			os.Exit(2)
		}
		runController(controllerOpts{
			addr:        *controller,
			stateDir:    *stateDir,
			jopts:       journal.Options{SegmentBytes: *segmentBytes, Policy: pol},
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
		reg: reg,
		fs:  chaos.OS(),
		buildOpts: core.Options{
			Hook: hook, MCPU: *mcpu, KernelALU32: true,
			GuardDiffInputs: *guardDiff, PassTimeout: *passTimeout,
			Metrics: core.NewMetrics(reg),
		},
		deployOpts: lifecycle.DeployOptions{CanaryFraction: *canaryFraction},
		seed:       *seed,
		token:      *controlToken,
	}
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
			if err != nil {
				fmt.Fprintln(os.Stderr, "merlind: -superopt-cache:", err)
				os.Exit(2)
			}
			d.socache = cache
		} else {
			// A process-wide in-memory cache: repeated builds share verdicts
			// and cacheexport/cachemerge (fleet federation) have something to
			// export even without persistence.
			d.socache = superopt.NewMemCache()
		}
		socfg.Cache = d.socache
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
	d.bsvc = buildsvc.New(bcfg)
	cfg := lifecycle.Config{
		ShadowRuns:   *shadow,
		CanaryRuns:   *canary,
		CycleSlack:   *cycleSlack,
		InsnBudget:   *insnBudget,
		CycleBudget:  *cycleBudget,
		MaxRetries:   *retries,
		BackoffBase:  *backoff,
		AutoPromote:  *autoPromote,
		Metrics:      reg,
		CompactEvery: *compactEvery,
		VM:           vm.Config{Seed: uint64(*seed), Metrics: vm.NewMetrics(reg)},
	}
	jopts := journal.Options{SegmentBytes: *segmentBytes, Policy: pol}
	var degradedReason string
	if *stateDir != "" {
		jl, err := journal.OpenWith(*stateDir, jopts)
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
	d.mgr = lifecycle.NewManager(cfg)
	if *stateDir != "" && d.jl == nil {
		d.mgr.MarkJournalUnavailable(degradedReason)
	}

	if d.jl != nil {
		rs, err := d.mgr.Recover()
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
		for _, st := range d.mgr.Status() {
			fmt.Println(st)
		}
	}

	if *stateDir != "" && d.jl == nil {
		// Launched only after the startup reads of d.jl above: from here on
		// the field is accessed under jlmu.
		go d.reattachLoop(*stateDir, jopts)
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
			if err := d.mgr.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "merlind: flush on shutdown:", err)
				os.Exit(1)
			}
			d.mgr.Compact()
			d.shutdown()
			os.Exit(0)
		}()
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlind: -listen:", err)
			os.Exit(2)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", d.serveMetrics)
		// Announce the resolved address so scripts can pass :0 and scrape the
		// chosen port. The serve loop is resilient: an accept-loop death is
		// counted, logged, and the listener re-opened — the daemon never
		// silently loses its scrape endpoint while the process lives on.
		fmt.Printf("ok listen %s\n", ln.Addr())
		d.httpSrv = &metrics.ResilientServer{
			ServeErrors: reg.Counter("merlin_http_serve_errors_total",
				"http accept-loop deaths survived by re-listening"),
			OnError: func(err error) { fmt.Fprintln(os.Stderr, "merlind: http:", err) },
		}
		go d.httpSrv.Serve(ln, mux)
	}

	if serveMode {
		addr, err := d.startControl(*control)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlind: -control:", err)
			os.Exit(2)
		}
		fmt.Printf("ok control %s\n", addr)
		if *joinAddr != "" {
			go announceLoop(*joinAddr, *workerName, addr.String(), *controlToken, *rejoinEvery)
		}
	}

	failed := false
	quitSeen := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" {
			quitSeen = true
			break
		}
		if err := d.dispatch(os.Stdout, line); err != nil {
			failed = true
			fmt.Printf("err %s: %v\n", strings.Fields(line)[0], err)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "merlind: stdin:", err)
		os.Exit(2)
	}
	if serveMode && !quitSeen {
		// The control listener outlives a closed stdin: a worker launched
		// with its input redirected from /dev/null keeps serving the fleet
		// until signaled. An explicit quit still exits.
		select {}
	}
	if *stateDir != "" {
		if err := d.mgr.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "merlind: flush on exit:", err)
			failed = true
		}
		d.mgr.Compact()
	}
	d.shutdown()
	if failed {
		os.Exit(1)
	}
}

// serveMetrics answers GET /metrics with the shared registry in Prometheus
// text exposition format. CollectMetrics and WriteText are both safe against
// the command loop, so a scrape never blocks traffic.
func (d *daemon) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	d.mgr.CollectMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.reg.WriteText(w); err != nil {
		// The response is already streaming; nothing useful left to do.
		return
	}
}

// dispatch executes one command line and writes its reply lines to w. The
// daemon mutex makes each command atomic against the other input sources
// (stdin and every control-listener connection share one daemon).
func (d *daemon) dispatch(w io.Writer, line string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	args := strings.Fields(line)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "deploy":
		if len(args) < 2 {
			return fmt.Errorf("usage: deploy <slot> <file.mir|corpus:NAME> [func]")
		}
		return d.deploy(w, args[0], args[1], args[2:])
	case "traffic":
		if len(args) != 2 {
			return fmt.Errorf("usage: traffic <slot> <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("traffic count must be a positive integer")
		}
		return d.drive(w, args[0], n)
	case "promote":
		if len(args) < 1 {
			return fmt.Errorf("usage: promote <slot> [force]")
		}
		force := len(args) > 1 && args[1] == "force"
		if err := d.mgr.Promote(args[0], force); err != nil {
			return err
		}
		st, _ := d.mgr.StatusOf(args[0])
		fmt.Fprintf(w, "ok promote %s live=gen%d\n", args[0], st.LiveGeneration)
		return nil
	case "rollback":
		if len(args) != 1 {
			return fmt.Errorf("usage: rollback <slot>")
		}
		if err := d.mgr.Rollback(args[0]); err != nil {
			return err
		}
		st, _ := d.mgr.StatusOf(args[0])
		fmt.Fprintf(w, "ok rollback %s live=gen%d\n", args[0], st.LiveGeneration)
		return nil
	case "abort":
		if len(args) != 1 {
			return fmt.Errorf("usage: abort <slot>")
		}
		if err := d.mgr.Abort(args[0]); err != nil {
			return err
		}
		st, _ := d.mgr.StatusOf(args[0])
		fmt.Fprintf(w, "ok abort %s live=gen%d\n", args[0], st.LiveGeneration)
		return nil
	case "drain":
		if len(args) != 1 {
			return fmt.Errorf("usage: drain <slot>")
		}
		removed := d.mgr.Remove(args[0])
		fmt.Fprintf(w, "ok drain %s removed=%v\n", args[0], removed)
		return nil
	case "status":
		for _, st := range d.mgr.Status() {
			fmt.Fprintln(w, st)
		}
		if h := d.mgr.JournalHealth(); h.Configured {
			fmt.Fprintln(w, h)
		}
		if d.httpSrv != nil {
			fmt.Fprintln(w, d.httpSrv.Health())
		}
		fmt.Fprintln(w, "ok status")
		return nil
	case "events":
		if len(args) != 1 {
			return fmt.Errorf("usage: events <slot>")
		}
		for _, ev := range d.mgr.Events(args[0]) {
			fmt.Fprintln(w, ev)
		}
		fmt.Fprintf(w, "ok events %s\n", args[0])
		return nil
	case "maps":
		if len(args) != 1 {
			return fmt.Errorf("usage: maps <slot>")
		}
		dumps, err := d.mgr.LiveMaps(args[0])
		if err != nil {
			return err
		}
		for _, md := range dumps {
			line := fmt.Sprintf("map %s bytes=%d", md.Name, len(md.Data))
			if len(md.Data) >= 8 {
				var v uint64
				for i := 7; i >= 0; i-- {
					v = v<<8 | uint64(md.Data[i])
				}
				line += fmt.Sprintf(" u64[0]=%d", v)
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "ok maps %s\n", args[0])
		return nil
	case "metrics":
		d.mgr.CollectMetrics()
		if err := d.reg.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w, "ok metrics")
		return nil
	case "tick":
		d.mgr.Tick()
		fmt.Fprintln(w, "ok tick")
		return nil
	case "build":
		if len(args) < 1 {
			return fmt.Errorf("usage: build <file.mir|corpus:NAME> [func]")
		}
		return d.build(w, args[0], args[1:])
	case "cachestats":
		return d.cacheStats(w)
	case "cacheexport":
		var since uint64
		if len(args) > 0 {
			v, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return fmt.Errorf("cacheexport: since must be a non-negative integer")
			}
			since = v
		}
		return d.cacheExport(w, since)
	case "cachemerge":
		if len(args) != 1 {
			return fmt.Errorf("usage: cachemerge <base64-blob>")
		}
		return d.cacheMerge(w, args[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// buildRequest resolves a build operand into a content-addressed request.
// Corpus programs are rendered to canonical IR text so the same program
// submitted on two daemons shares one key.
func (d *daemon) buildRequest(src string, rest []string) (buildsvc.Request, error) {
	opts := d.buildOpts
	var source []byte
	var fn string
	if name, ok := strings.CutPrefix(src, "corpus:"); ok {
		spec := findCorpus(name)
		if spec == nil {
			return buildsvc.Request{}, fmt.Errorf("no corpus program %q", name)
		}
		source = []byte(ir.Print(spec.Mod))
		fn = spec.Func
		opts.Hook, opts.MCPU = spec.Hook, spec.MCPU
	} else {
		text, err := chaos.ReadFile(d.fs, src)
		if err != nil {
			return buildsvc.Request{}, err
		}
		mod, err := ir.Parse(string(text))
		if err != nil {
			return buildsvc.Request{}, err
		}
		if len(mod.Funcs) == 0 {
			return buildsvc.Request{}, fmt.Errorf("module has no functions")
		}
		source, fn = text, mod.Funcs[0].Name
	}
	if len(rest) > 0 {
		fn = rest[0]
	}
	return buildsvc.Request{Source: source, Func: fn, Opts: opts}, nil
}

// build runs one submission through the build service and reports the
// outcome plus the producing build's stats — on artifact hits those are the
// stats of the build that filled the entry, served without running a pass.
func (d *daemon) build(w io.Writer, src string, rest []string) error {
	req, err := d.buildRequest(src, rest)
	if err != nil {
		return err
	}
	res, err := d.bsvc.Submit(req)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(w, "ok build key=%s outcome=%s insns=%d saved=%d searches=%d hits=%d rewrites=%d cycles-saved=%d ms=%d\n",
		buildsvc.ShortKey(res.Key), res.Outcome, st.Insns, st.InsnsSaved,
		st.Searches, st.CacheHits, st.Rewrites, st.CyclesSaved,
		time.Duration(st.BuildNanos).Milliseconds())
	return nil
}

// cacheStats reports the size of both content-addressed caches.
func (d *daemon) cacheStats(w io.Writer) error {
	var verdicts int
	var seq uint64
	if d.socache != nil {
		verdicts, seq = d.socache.Len(), d.socache.Seq()
	}
	fmt.Fprintf(w, "ok cachestats verdicts=%d seq=%d artifacts=%d pending=%d\n",
		verdicts, seq, d.bsvc.Cache().Len(), d.bsvc.Pending())
	return nil
}

// cacheExport emits the superopt verdicts inserted at sequence >= since as
// one base64 line, then the new watermark. The controller's fcache sync
// drives this over the control listener.
func (d *daemon) cacheExport(w io.Writer, since uint64) error {
	if d.socache == nil {
		return fmt.Errorf("no superopt cache (-superopt required)")
	}
	blob, seq, n, err := d.socache.Export(since)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cachedata %s\n", base64.StdEncoding.EncodeToString(blob))
	fmt.Fprintf(w, "ok cacheexport seq=%d entries=%d\n", seq, n)
	return nil
}

// cacheMerge unions a base64 Export blob into the superopt cache. A verdict
// conflict fails the whole merge and mutates nothing.
func (d *daemon) cacheMerge(w io.Writer, b64 string) error {
	if d.socache == nil {
		return fmt.Errorf("no superopt cache (-superopt required)")
	}
	blob, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return fmt.Errorf("cachemerge: bad base64: %v", err)
	}
	st, err := d.socache.Merge(blob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ok cachemerge added=%d known=%d total=%d\n", st.Added, st.Known, d.socache.Len())
	return nil
}

// moduleSource resolves a deploy operand (file path or corpus:NAME, plus an
// optional function name) into a lifecycle Source. The same resolution backs
// ResolveSource, so a journaled SourceDesc rebuilds exactly like the deploy
// command that produced it.
func (d *daemon) moduleSource(src string, rest []string) (lifecycle.Source, error) {
	var mod *ir.Module
	var fn string
	opts := d.buildOpts
	if name, ok := strings.CutPrefix(src, "corpus:"); ok {
		spec := findCorpus(name)
		if spec == nil {
			return nil, fmt.Errorf("no corpus program %q", name)
		}
		mod, fn = spec.Mod, spec.Func
		opts.Hook, opts.MCPU = spec.Hook, spec.MCPU
	} else {
		text, err := chaos.ReadFile(d.fs, src)
		if err != nil {
			return nil, err
		}
		mod, err = ir.Parse(string(text))
		if err != nil {
			return nil, err
		}
		if len(mod.Funcs) == 0 {
			return nil, fmt.Errorf("module has no functions")
		}
		fn = mod.Funcs[0].Name
	}
	if len(rest) > 0 {
		fn = rest[0]
	}
	return lifecycle.ModuleSource(mod, fn, opts), nil
}

// resolveSource reattaches a journaled SourceDesc after recovery.
func (d *daemon) resolveSource(desc string) (lifecycle.Source, error) {
	fields := strings.Fields(desc)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty source descriptor")
	}
	return d.moduleSource(fields[0], fields[1:])
}

// deploy stages a candidate from a textual IR file or a named corpus program.
func (d *daemon) deploy(w io.Writer, slot, src string, rest []string) error {
	source, err := d.moduleSource(src, rest)
	if err != nil {
		return err
	}
	opts := d.deployOpts
	opts.SourceDesc = strings.TrimSpace(src + " " + strings.Join(rest, " "))
	if err := d.mgr.DeployWith(slot, source, opts); err != nil {
		return err
	}
	st, _ := d.mgr.StatusOf(slot)
	fmt.Fprintf(w, "ok deploy %s stage=%s live=gen%d", slot, st.Stage, st.LiveGeneration)
	if st.CandidateGeneration > 0 {
		fmt.Fprintf(w, " candidate=gen%d", st.CandidateGeneration)
	}
	fmt.Fprintln(w)
	return nil
}

// drive serves n synthetic XDP packets through the slot in ServeBatch chunks,
// mirroring them into any in-flight candidate, and reports the verdict
// histogram.
func (d *daemon) drive(w io.Writer, slot string, n int) error {
	inputs := guard.Inputs(ebpf.HookXDP, n, d.seed+d.traffic)
	d.traffic += int64(n)
	verdicts := map[int64]int{}
	if err := d.driver.Drive(d.mgr, slot, inputs, verdicts); err != nil {
		return err
	}
	// Traffic mutates map state without lifecycle transitions; flush so the
	// counters survive a crash between commands.
	if err := d.mgr.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "merlind: flush after traffic:", err)
	}
	st, _ := d.mgr.StatusOf(slot)
	var vparts []string
	for _, v := range []int64{ebpf.XDPAborted, ebpf.XDPDrop, ebpf.XDPPass, ebpf.XDPTx, ebpf.XDPRedirect} {
		if c := verdicts[v]; c > 0 {
			vparts = append(vparts, fmt.Sprintf("%s=%d", verdictName(v), c))
			delete(verdicts, v)
		}
	}
	for v, c := range verdicts {
		vparts = append(vparts, fmt.Sprintf("%d=%d", v, c))
	}
	fmt.Fprintf(w, "ok traffic %s n=%d stage=%s served=%d mirrored=%d eseq=%d verdicts[%s]\n",
		slot, n, st.Stage, st.Served, st.Mirrored, st.EventSeq, strings.Join(vparts, " "))
	return nil
}

func verdictName(v int64) string {
	switch v {
	case ebpf.XDPAborted:
		return "aborted"
	case ebpf.XDPDrop:
		return "drop"
	case ebpf.XDPPass:
		return "pass"
	case ebpf.XDPTx:
		return "tx"
	case ebpf.XDPRedirect:
		return "redirect"
	}
	return fmt.Sprintf("%d", v)
}

func findCorpus(name string) *corpus.ProgramSpec {
	for _, spec := range corpus.XDP() {
		if spec.Name == name {
			return spec
		}
	}
	return nil
}
