// The fleet faces of merlind: as a worker it serves its line protocol on a
// TCP control listener and announces itself to a controller; with
// -controller it becomes the fleet control plane itself, managing worker
// merlinds over internal/fleet — consistent-hash traffic routing, rolling
// canaried deploys, journal-backed recovery, per-worker circuit breakers.
//
// Controller commands (stdin and the control listener speak the same set):
//
//	join <name> <addr>      admit or re-admit a worker (workers send this)
//	workers                 one line listing the known workers
//	fleet                   full fleet status: workers, catalog, rollout
//	placement               one line per slot: replicas, version, live count
//	leave <worker>          drain a worker out of the fleet and its placements
//	fdeploy <slot> <src>    start a rolling deploy of src across the fleet
//	fstep [n]               drive up to n rollout steps (default 1)
//	fwait [max]             step until the rollout settles (default 1000)
//	ftraffic <slot> <n>     fan n packets across the fleet's routable workers
//	fcache                  federate superopt caches: pull worker deltas,
//	                        merge as a union (conflicts abort loudly), push
//	                        the merged cache back to every worker
//	fevents                 dump the fleet event ring
//	fmetrics                fleet-aggregated metrics (controller + workers)
//	tick                    one reconciler pass (probes down workers too)
//	quit                    flush and exit
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"merlin/internal/fleet"
	"merlin/internal/journal"
	"merlin/internal/metrics"
)

// ---- worker side ----------------------------------------------------------

// announceLoop keeps re-introducing this worker to the controller: the first
// announcement admits it, later ones are cheap idempotent re-joins that pull
// the worker back into the fleet after a controller restart or a healed
// partition without waiting for a controller-side probe.
func announceLoop(ctrlAddr, join string, every time.Duration) {
	tcp := &fleet.TCP{Dialer: net.Dialer{Timeout: 2 * time.Second}}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		lines, err := tcp.RPC(ctx, ctrlAddr, join)
		cancel()
		if errLine, refused := fleet.ReplyErr(lines); refused {
			err = fmt.Errorf("controller: %s", strings.TrimPrefix(errLine, "err "))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlind: join:", err)
		}
		time.Sleep(every)
	}
}

// ---- controller side ------------------------------------------------------

type controllerOpts struct {
	addr        string // control listener address (required)
	stateDir    string // controller journal home ("" = in-memory)
	listen      string // HTTP /metrics address ("" = none)
	seed        int64
	replication int    // replicas per slot (>= 1)
	token       string // shared secret for control/join RPCs ("" = open)
}

// runController is merlind's -controller mode: a fleet control plane over
// TCP. Worker merlinds announce themselves with join lines; operators drive
// rollouts over stdin or the same listener; a background ticker runs the
// reconciler, whose status reads double as probes of down workers.
func runController(o controllerOpts) {
	reg := metrics.New()
	ctl := fleet.New(fleet.Config{
		Seed:        uint64(o.seed) | 1,
		Metrics:     reg,
		Replication: o.replication,
		AuthToken:   o.token,
	}, &fleet.TCP{Redials: reg.Counter("merlin_fleet_rpc_redials_total",
		"worker RPCs retried on a fresh dial after a stale pooled connection")})
	auth := fleet.NewAuth(o.token, reg)
	dispatch := func(w io.Writer, line string) error { return dispatchController(ctl, w, line) }

	var jl *journal.Log
	if o.stateDir != "" {
		var err error
		jl, err = journal.Open(o.stateDir)
		fatalIf(err != nil, "-state-dir: %v", err)
		ctl.AttachJournal(jl)
		rs, err := ctl.Recover()
		fatalIf(err != nil, "controller recover: %v", err)
		// Re-admit the recovered fleet before announcing: recovered workers
		// start Down with an expired breaker, and this first Tick is the
		// probe+reconcile pass that brings the live ones back.
		ctl.Tick()
		phase := rs.RolloutPhase
		if phase == "" {
			phase = "none"
		}
		fmt.Printf("ok frecover workers=%d slots=%d placements=%d rollout=%s\n",
			rs.Workers, rs.Slots, rs.Placements, phase)
	}

	shutdown := func(code int) {
		ctl.Flush()
		if jl != nil {
			jl.Close()
		}
		os.Exit(code)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		shutdown(0)
	}()

	ln, err := net.Listen("tcp", o.addr)
	fatalIf(err != nil, "-controller: %v", err)
	fmt.Printf("ok controller %s\n", ln.Addr())
	go fleet.Listen(ln, &auth, dispatch, nil)

	if o.listen != "" {
		serveMetricsHTTP(o.listen, reg, ctl.WriteMetrics)
	}

	// The maintenance ticker: one reconciler pass per second. Rollout
	// stepping stays explicit (fstep/fwait) so scripts control exactly when
	// the fleet moves.
	go func() {
		for {
			time.Sleep(time.Second)
			ctl.Tick()
		}
	}()

	// Worker joins and remote operators alike must present the token; stdin
	// is the local operator and is never challenged.
	failed, quit, err := fleet.Serve(os.Stdin, os.Stdout, nil, operator(dispatch))
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlind: stdin:", err)
		shutdown(2)
	}
	if quit {
		code := 0
		if failed {
			code = 1
		}
		shutdown(code)
	}
	// stdin has drained; keep serving workers until signaled.
	select {}
}

// dispatchController executes one controller command and writes its reply to
// w. The Controller is safe for concurrent use, so worker joins keep landing
// while stdin drives a rollout.
func dispatchController(ctl *fleet.Controller, w io.Writer, line string) error {
	args := strings.Fields(line)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "join":
		if len(args) != 2 {
			return fmt.Errorf("usage: join <name> <addr>")
		}
		if err := ctl.Join(args[0], args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok join %s\n", args[0])
		return nil
	case "workers":
		names := ctl.Workers()
		fmt.Fprintf(w, "ok workers n=%d %s\n", len(names), strings.Join(names, " "))
		return nil
	case "fleet":
		for _, l := range ctl.FleetStatus().Lines() {
			fmt.Fprintln(w, l)
		}
		fmt.Fprintln(w, "ok fleet")
		return nil
	case "placement":
		for _, pv := range ctl.FleetStatus().Placements {
			fmt.Fprintf(w, "placement slot=%s ver=%d live=%d/%d replicas=%s\n",
				pv.Slot, pv.Ver, pv.Live, len(pv.Replicas), strings.Join(pv.Replicas, ","))
		}
		fmt.Fprintln(w, "ok placement")
		return nil
	case "leave":
		if len(args) != 1 {
			return fmt.Errorf("usage: leave <worker>")
		}
		if err := ctl.Leave(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok leave %s\n", args[0])
		return nil
	case "fdeploy":
		if len(args) < 2 {
			return fmt.Errorf("usage: fdeploy <slot> <src...>")
		}
		if err := ctl.Deploy(args[0], strings.Join(args[1:], " ")); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok fdeploy %s\n", args[0])
		return nil
	case "fstep":
		n := 1
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v <= 0 {
				return fmt.Errorf("fstep count must be a positive integer")
			}
			n = v
		}
		var done bool
		steps := 0
		for ; steps < n; steps++ {
			var err error
			if done, err = ctl.Step(); err != nil {
				return err
			}
			if done {
				break
			}
		}
		fmt.Fprintf(w, "ok fstep steps=%d done=%v phase=%s\n", steps, done, rolloutPhase(ctl))
		return nil
	case "fwait":
		max := 1000
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v <= 0 {
				return fmt.Errorf("fwait budget must be a positive integer")
			}
			max = v
		}
		steps := 0
		for ; steps < max; steps++ {
			done, err := ctl.Step()
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		fmt.Fprintf(w, "ok fwait steps=%d phase=%s\n", steps, rolloutPhase(ctl))
		return nil
	case "ftraffic":
		if len(args) != 2 {
			return fmt.Errorf("usage: ftraffic <slot> <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("traffic count must be a positive integer")
		}
		rep := ctl.Traffic(args[0], n)
		fmt.Fprintf(w, "ok ftraffic %s sent=%d rerouted=%d dropped=%d\n",
			args[0], rep.Sent, rep.Rerouted, rep.Dropped)
		return nil
	case "fcache":
		rep, err := ctl.CacheSync()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ok fcache %s\n", rep)
		return nil
	case "fevents":
		for _, ev := range ctl.Events() {
			fmt.Fprintln(w, ev.String())
		}
		fmt.Fprintln(w, "ok fevents")
		return nil
	case "fmetrics":
		if err := ctl.WriteMetrics(w); err != nil {
			return err
		}
		fmt.Fprintln(w, "ok fmetrics")
		return nil
	case "tick":
		ctl.Tick()
		fmt.Fprintln(w, "ok tick")
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func rolloutPhase(ctl *fleet.Controller) string {
	if r := ctl.RolloutStatus(); r != nil {
		return r.Phase
	}
	return "none"
}
