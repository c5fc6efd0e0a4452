package clitest

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// startController starts a controller merlind with flags and returns it
// with its control address, once it has recovered its state dir.
func startController(t *testing.T, bin string, flags ...string) (*interactiveDaemon, string) {
	t.Helper()
	ctl := startDaemon(t, bin, flags...)
	ctl.waitFor("ok frecover ")
	return ctl, strings.TrimPrefix(ctl.waitFor("ok controller "), "ok controller ")
}

// awaitWorkers polls the controller until n workers are admitted.
func awaitWorkers(ctl *interactiveDaemon, n string) {
	ctl.t.Helper()
	ctl.until(n+" workers admitted", func() bool { return strings.HasPrefix(ctl.ask("workers"), "ok workers n="+n+" ") })
}

// fanOut routes n packets of slot through the controller; every one must
// be served.
func fanOut(ctl *interactiveDaemon, slot string, n int) string {
	ctl.t.Helper()
	line := ctl.ask("ftraffic " + slot + " " + strconv.Itoa(n))
	if field(ctl.t, line, "sent") != n || field(ctl.t, line, "dropped") != 0 {
		ctl.t.Fatalf("fan-out %s, want sent=%d dropped=0:\n%s", line, n, ctl.log.String())
	}
	return line
}

// fanOutClean is fanOut on a healthy fleet, where no chunk may even fail
// over. On a reroute it dumps the fleet status and events with the
// transcript.
func fanOutClean(ctl *interactiveDaemon, n int) {
	ctl.t.Helper()
	if line := fanOut(ctl, "lb", n); field(ctl.t, line, "rerouted") != 0 {
		ctl.do("fleet")
		ctl.do("fevents")
		ctl.t.Fatalf("fan-out %s on a healthy fleet, want rerouted=0:\n%s", line, ctl.log.String())
	}
}

// TestMerlindFleet is the real-TCP end-to-end: a controller merlind and two
// worker merlinds on loopback. It drives a rolling deploy and checks the
// fan-out reuses connections; SIGKILLs a worker mid-rollout, which must
// halt and roll the fleet back while traffic reroutes and the fleet reports
// degraded until the worker rejoins; then SIGKILLs the controller
// mid-rollout, whose journal-recovered successor must complete it.
func TestMerlindFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	state := filepath.Join(t.TempDir(), "ctl-state")
	ctl, ctlAddr := startController(t, bin, "-controller", "127.0.0.1:0", "-state-dir", state)

	workerFlags := func(name string) []string {
		return []string{"-join", ctlAddr, "-name", name, "-rejoin-every", "250ms",
			"-shadow", "2", "-canary", "2"}
	}
	w1 := startDaemon(t, bin, append(workerFlags("w1"), "-listen", "127.0.0.1:0")...)
	w1.waitFor("ok listen ")
	w1.waitFor("ok control ")
	w2 := startDaemon(t, bin, workerFlags("w2")...)
	w2.waitFor("ok control ")
	awaitWorkers(ctl, "2")

	// The worker's status command reports its HTTP listener health.
	if !slices.ContainsFunc(w1.do("status"), func(l string) bool {
		return strings.HasPrefix(l, "listener addr=") && strings.Contains(l, "up=true")
	}) {
		t.Errorf("worker status lacks listener health line:\n%s", w1.log.String())
	}

	// A fleet-wide rolling deploy: every worker ends at the same version.
	rollout := func(ctl *interactiveDaemon, want string) {
		t.Helper()
		if line := ctl.ask("fwait"); !strings.Contains(line, "phase="+want) {
			ctl.do("fevents")
			t.Fatalf("rollout ended %s, want phase=%s:\n%s", line, want, ctl.log.String())
		}
	}
	ctl.ask("fdeploy lb corpus:xdp1")
	rollout(ctl, "done")
	fanOutClean(ctl, 16)

	// fleet.TCP keeps worker connections open: after a larger fan-out each
	// worker has accepted far fewer connections than it dispatched lines.
	fanOutClean(ctl, 512)
	series := ctl.metrics("fmetrics")
	for _, w := range []string{"w1", "w2"} {
		conns := series[`merlin_control_connections_total{worker="`+w+`"}`]
		rpcs := series[`merlin_control_rpcs_total{worker="`+w+`"}`]
		if conns < 1 || rpcs < 8*conns {
			t.Errorf("%s accepted %d connections for %d control lines, want >= 1 and <= lines/8", w, conns, rpcs)
		}
	}
	if n := series["merlin_fleet_rpc_redials_total"]; n != 0 {
		t.Errorf("merlin_fleet_rpc_redials_total = %d, want 0", n)
	}

	// SIGKILL w2 mid-rollout: the rollout halts and rolls back rather than
	// promote a version only part of the fleet runs.
	ctl.ask("fdeploy lb corpus:xdp1")
	ctl.ask("fstep 1")
	w2.kill()
	rollout(ctl, "failed")
	if !slices.ContainsFunc(ctl.do("fevents"), func(l string) bool { return strings.Contains(l, "rollout-halted") }) {
		t.Fatalf("no rollout-halted event:\n%s", ctl.log.String())
	}
	// Traffic keeps flowing around the dead worker; consecutive failures
	// take it down and the fleet reports degraded.
	ctl.until("fleet degraded", func() bool {
		fanOut(ctl, "lb", 16)
		return slices.Contains(ctl.do("fleet"), "degraded=true")
	})
	series = ctl.metrics("fmetrics")
	if series["merlin_fleet_degraded"] != 1 || series["merlin_fleet_rollouts_rolled_back_total"] != 1 {
		t.Errorf("merlin_fleet_degraded = %d, rollouts_rolled_back_total = %d, want 1 and 1",
			series["merlin_fleet_degraded"], series["merlin_fleet_rollouts_rolled_back_total"])
	}

	// A fresh w2 under the same name rejoins via its announce loop;
	// reconcile pushes the blessed version and degradation clears.
	w2 = startDaemon(t, bin, workerFlags("w2")...)
	w2.waitFor("ok control ")
	ctl.until("fleet recovered", func() bool { return slices.Contains(ctl.do("fleet"), "degraded=false") })

	// SIGKILL the controller mid-rollout; its successor on the same state
	// dir recovers the rollout from the journal and completes it.
	ctl.ask("fdeploy lb corpus:xdp1")
	ctl.ask("fstep 2")
	ctl.kill()
	ctl2 := startDaemon(t, bin, "-controller", ctlAddr, "-state-dir", state)
	if line := ctl2.waitFor("ok frecover "); !strings.HasPrefix(line, "ok frecover workers=2 slots=1 ") ||
		strings.Contains(line, "rollout=none") {
		t.Fatalf("recovery = %s, want workers=2 slots=1 and an in-flight rollout", line)
	}
	ctl2.waitFor("ok controller ")
	rollout(ctl2, "done")
	fanOutClean(ctl2, 8)

	// Fleet-aggregated metrics: the controller's own series plus each
	// worker's scrape re-labeled with worker="<name>".
	lines := ctl2.do("fmetrics")
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "merlin_fleet_workers{") }) ||
		!slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, `worker="w1"`) }) {
		t.Errorf("fmetrics lacks fleet gauges or relabeled worker series:\n%s", strings.Join(lines, "\n"))
	}
	ctl2.quit()
	w1.quit()
}

// TestMerlindFederation: one controller round federates superopt verdicts
// between real workers. Worker A pays for the searches on a cold build; an
// fcache round pulls A's verdicts and pushes the union to both; the same
// build on worker B, which never searched, comes back just as improved
// with every window a cache hit.
func TestMerlindFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	src := writeFile(t, "sochain.mir", soChainIR)
	ctl, addr := startController(t, bin, "-controller", "127.0.0.1:0",
		"-state-dir", filepath.Join(t.TempDir(), "state"))
	worker := func(name string) *interactiveDaemon {
		d := startDaemon(t, bin, "-join", addr, "-name", name, "-rejoin-every", "250ms",
			"-superopt", "-shadow", "2", "-canary", "2")
		d.waitFor("ok control ")
		return d
	}
	wa, wb := worker("wa"), worker("wb")
	awaitWorkers(ctl, "2")

	if line := wa.ask("build " + src); !strings.Contains(line, " outcome=built ") || field(t, line, "searches") < 1 {
		t.Fatalf("cold build on wa: %s, want outcome=built and searches >= 1", line)
	}
	if line := ctl.ask("fcache"); !regexp.MustCompile(`^ok fcache workers=2 pulled=2 .*pushed=2 skipped=0`).MatchString(line) {
		t.Fatalf("federation round: %s, want workers=2 pulled=2 pushed=2 skipped=0", line)
	}
	line := wb.ask("build " + src)
	if !strings.Contains(line, " outcome=built ") || field(t, line, "searches") != 0 ||
		field(t, line, "hits") < 1 || field(t, line, "saved") < 1 {
		t.Fatalf("warm build on wb: %s, want outcome=built searches=0 hits >= 1 saved >= 1", line)
	}
	series := wb.metrics("metrics")
	if series["merlin_superopt_cache_hits_total"] < 1 || series["merlin_superopt_searches_total"] != 0 ||
		series[`merlin_build_outcomes_total{outcome="built"}`] != 1 {
		t.Errorf("wb metrics: cache hits %d, searches %d, built %d; want >= 1, 0, 1",
			series["merlin_superopt_cache_hits_total"], series["merlin_superopt_searches_total"],
			series[`merlin_build_outcomes_total{outcome="built"}`])
	}
	wa.quit()
	wb.quit()
	ctl.quit()
}

// TestMerlindPlacement: three token-armed workers, replication 2. A
// tokenless join is refused and counted; the slot lands on two workers;
// SIGKILLing one replica drops no fan-out while the rebalancer repairs the
// slot onto the third worker; a SIGKILLed controller's successor recovers
// the placement from its journal.
func TestMerlindPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	ctlFlags := []string{"-state-dir", filepath.Join(t.TempDir(), "state"),
		"-replication", "2", "-control-token", "s3cr3t"}
	ctl, addr := startController(t, bin, append([]string{"-controller", "127.0.0.1:0"}, ctlFlags...)...)
	workers := map[string]*interactiveDaemon{}
	for _, name := range []string{"w1", "w2", "w3"} {
		workers[name] = startDaemon(t, bin, "-join", addr, "-name", name, "-rejoin-every", "250ms",
			"-control-token", "s3cr3t", "-shadow", "2", "-canary", "2")
	}
	awaitWorkers(ctl, "3")

	intruder := startDaemon(t, bin, "-join", addr, "-name", "intruder", "-rejoin-every", "100ms",
		"-shadow", "2", "-canary", "2")
	ctl.until("tokenless join counted", func() bool {
		return ctl.metrics("fmetrics")["merlin_fleet_auth_failures_total"] >= 1
	})
	intruder.kill()
	if line := ctl.ask("workers"); !strings.HasPrefix(line, "ok workers n=3 ") {
		t.Fatalf("after the tokenless join: %s, want n=3", line)
	}

	ctl.ask("fdeploy lb corpus:xdp1")
	if line := ctl.ask("fwait"); !strings.Contains(line, "phase=done") {
		t.Fatalf("rollout: %s\n%s", line, ctl.log.String())
	}
	// replicas reads lb's placement when it is in state, nil otherwise.
	replicas := func(ctl *interactiveDaemon, state string) []string {
		t.Helper()
		for _, l := range ctl.do("placement") {
			if rest, ok := strings.CutPrefix(l, "placement slot=lb "+state+" replicas="); ok {
				return strings.Split(rest, ",")
			}
		}
		return nil
	}
	reps := replicas(ctl, "ver=1 live=2/2")
	if len(reps) != 2 {
		t.Fatalf("placement after deploy, want ver=1 live=2/2 on two replicas:\n%s", ctl.log.String())
	}
	victim := reps[0]

	// SIGKILL one replica: fan-outs fail over with zero drops, the fleet
	// notices the under-replication, and the rebalancer repairs the slot
	// onto the spare worker.
	workers[victim].kill()
	ctl.until("under-replication noticed", func() bool {
		fanOut(ctl, "lb", 16)
		return ctl.metrics("fmetrics")["merlin_fleet_under_replicated"] == 1
	})
	ctl.until("repair off the victim", func() bool {
		fanOut(ctl, "lb", 16)
		var repairs int64
		for k, v := range ctl.metrics("fmetrics") {
			if strings.HasPrefix(k, "merlin_fleet_repairs_completed_total{mode=") {
				repairs += v
			}
		}
		reps = replicas(ctl, "ver=2 live=2/2")
		return repairs >= 1 && reps != nil
	})
	if slices.Contains(reps, victim) {
		t.Fatalf("repaired placement %v still names the victim %s", reps, victim)
	}
	ctl.until("under-replication cleared", func() bool {
		return ctl.metrics("fmetrics")["merlin_fleet_under_replicated"] == 0
	})

	// The controller dies; its successor recovers the exact placement map.
	ctl.kill()
	ctl2 := startDaemon(t, bin, append([]string{"-controller", addr}, ctlFlags...)...)
	if line := ctl2.waitFor("ok frecover "); !strings.HasPrefix(line, "ok frecover workers=3 slots=1 placements=1 ") {
		t.Fatalf("recovery = %s, want workers=3 slots=1 placements=1", line)
	}
	ctl2.waitFor("ok controller ")
	var got []string
	ctl2.until("placement routable", func() bool {
		fanOut(ctl2, "lb", 16)
		got = replicas(ctl2, "ver=2 live=2/2")
		return got != nil
	})
	if !slices.Equal(got, reps) {
		t.Fatalf("recovered placement %v, want %v", got, reps)
	}
	ctl2.quit()
}

// TestMerlindSrcFaultInjection: -src-fault-rate interposes the chaos
// filesystem on the source read path. At rate 1 every file deploy fails with
// the injected EIO while corpus deploys (no file I/O) keep working.
func TestMerlindSrcFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	mir := filepath.Join(t.TempDir(), "prog.mir")
	if err := os.WriteFile(mir, []byte("anything; the open faults first"), 0o644); err != nil {
		t.Fatal(err)
	}
	script := strings.Join([]string{
		"deploy lb " + mir,
		"deploy ok corpus:xdp1",
		"traffic ok 4",
		"quit",
	}, "\n") + "\n"
	out, err := runScript(t, bin, script,
		"-shadow", "2", "-canary", "2", "-src-fault-rate", "1", "-src-fault-seed", "7")
	if err == nil {
		t.Fatalf("file deploy under fault injection succeeded:\n%s", out)
	}
	if !strings.Contains(out, "err deploy") || !strings.Contains(out, "input/output error") {
		t.Fatalf("missing injected EIO diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "ok deploy ok") || !strings.Contains(out, "ok traffic ok") {
		t.Fatalf("corpus deploy did not survive source fault injection:\n%s", out)
	}
}
