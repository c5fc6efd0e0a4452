package clitest

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// interactiveDaemon is a merlind run driven command by command: send writes
// one line to stdin, waitFor and collect read stdout until a prefix appears.
// A reader goroutine feeds lines so that every wait has a deadline.
type interactiveDaemon struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // stdout, line by line; closed at EOF
	log   strings.Builder
}

// replyTimeout bounds every wait for a daemon line, so a command that never
// answers fails its test with the transcript instead of hanging it.
const replyTimeout = time.Minute

func startDaemon(t *testing.T, bin string, flags ...string) *interactiveDaemon {
	t.Helper()
	cmd := exec.Command(bin, flags...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &interactiveDaemon{t: t, cmd: cmd, stdin: stdin, lines: make(chan string)}
	done := make(chan struct{})
	go func() {
		defer close(d.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case d.lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(done)
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return d
}

func (d *interactiveDaemon) send(line string) {
	d.t.Helper()
	if _, err := io.WriteString(d.stdin, line+"\n"); err != nil {
		d.t.Fatal(err)
	}
}

// waitFor reads stdout until a line starts with prefix, returning that line.
func (d *interactiveDaemon) waitFor(prefix string) string {
	d.t.Helper()
	lines := d.collect(prefix)
	return lines[len(lines)-1]
}

// collect reads stdout until a line starts with terminator, returning every
// line read including it. It fails the test with the transcript when the
// daemon exits first, when nothing arrives within replyTimeout, or when the
// awaited "ok <verb>" is answered "err <verb>: ...".
func (d *interactiveDaemon) collect(terminator string) []string {
	d.t.Helper()
	var errReply string
	if verb, ok := strings.CutPrefix(terminator, "ok "); ok {
		verb, _, _ = strings.Cut(verb, " ")
		errReply = "err " + verb + ":"
	}
	deadline := time.After(replyTimeout)
	var lines []string
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				d.t.Fatalf("daemon exited before %q appeared:\n%s", terminator, d.log.String())
			}
			d.log.WriteString(line + "\n")
			lines = append(lines, line)
			if strings.HasPrefix(line, terminator) {
				return lines
			}
			if errReply != "" && strings.HasPrefix(line, errReply) {
				d.t.Fatalf("daemon answered %q while %q was awaited:\n%s", line, terminator, d.log.String())
			}
		case <-deadline:
			d.t.Fatalf("no %q within %v:\n%s", terminator, replyTimeout, d.log.String())
		}
	}
}

// do sends cmd and returns its reply, every line up to "ok <verb>".
func (d *interactiveDaemon) do(cmd string) []string {
	d.t.Helper()
	d.send(cmd)
	verb, _, _ := strings.Cut(cmd, " ")
	return d.collect("ok " + verb)
}

// ask sends cmd and returns its "ok <verb>" reply line.
func (d *interactiveDaemon) ask(cmd string) string {
	d.t.Helper()
	lines := d.do(cmd)
	return lines[len(lines)-1]
}

// metrics sends a metrics verb (metrics, fmetrics) and parses the scrape.
func (d *interactiveDaemon) metrics(verb string) map[string]int64 {
	d.t.Helper()
	return parseMetrics(d.t, strings.Join(d.do(verb), "\n"))
}

// kill SIGKILLs the daemon.
func (d *interactiveDaemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

// quit ends the daemon with the quit verb; it must exit cleanly.
func (d *interactiveDaemon) quit() {
	d.t.Helper()
	d.send("quit")
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("daemon exited uncleanly: %v\n%s", err, d.log.String())
	}
}

// until calls probe every 100ms until it holds, failing the test with the
// transcript after replyTimeout.
func (d *interactiveDaemon) until(what string, probe func() bool) {
	d.t.Helper()
	deadline := time.Now().Add(replyTimeout)
	for !probe() {
		if time.Now().After(deadline) {
			d.t.Fatalf("%s never happened:\n%s", what, d.log.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestMerlindMetricsEndpoint: -listen serves the shared registry over HTTP.
// The scrape must parse as Prometheus text exposition, and counters must
// advance between scrapes as traffic is driven.
func TestMerlindMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	d := startDaemon(t, bin, "-listen", "127.0.0.1:0", "-shadow", "2", "-canary", "2")

	line := d.waitFor("ok listen ")
	addr := strings.TrimPrefix(line, "ok listen ")
	url := "http://" + addr + "/metrics"

	scrape := func() map[string]int64 {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("scrape %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("scrape Content-Type = %q, want text/plain exposition", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseMetrics(t, string(body))
	}

	d.send("deploy lb corpus:xdp1")
	d.waitFor("ok deploy lb")
	d.send("traffic lb 6")
	d.waitFor("ok traffic lb")

	before := scrape()
	if got := before["merlin_vm_runs_total"]; got != 6 {
		t.Errorf("first scrape merlin_vm_runs_total = %d, want 6", got)
	}
	if got := before[`merlin_lifecycle_served_total{slot="lb"}`]; got != 6 {
		t.Errorf(`first scrape served_total{slot="lb"} = %d, want 6`, got)
	}

	d.send("traffic lb 4")
	d.waitFor("ok traffic lb")
	after := scrape()
	if got := after["merlin_vm_runs_total"]; got != 10 {
		t.Errorf("second scrape merlin_vm_runs_total = %d, want 10", got)
	}
	if after[`merlin_lifecycle_served_total{slot="lb"}`] <= before[`merlin_lifecycle_served_total{slot="lb"}`] {
		t.Error("served_total did not advance between scrapes")
	}

	// Non-GET is refused; the daemon itself keeps running.
	resp, err := http.Post(url, "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
	}

	d.send("quit")
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\n%s", err, d.log.String())
	}
	// Serve goroutine is gone with the process; a scrape now must fail.
	if _, err := (&http.Client{Timeout: time.Second}).Get(url); err == nil {
		t.Error("scrape succeeded after daemon exit")
	}
}

// TestMerlindStateDirLockContention: two daemons must never share one
// -state-dir. The second fails fast at startup with a diagnostic naming the
// conflict instead of interleaving journal appends.
func TestMerlindStateDirLockContention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	state := filepath.Join(t.TempDir(), "state")

	d := startDaemon(t, bin, "-state-dir", state, "-shadow", "2", "-canary", "2")
	d.waitFor("ok recover")

	out, err := runScript(t, bin, "status\nquit\n", "-state-dir", state)
	if err == nil {
		t.Fatalf("second merlind on a held state dir succeeded:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("second merlind exit = %v, want exit code 2", err)
	}
	if !strings.Contains(out, "locked by another process") {
		t.Errorf("contention output lacks diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "held by pid") {
		t.Errorf("contention output lacks holder pid:\n%s", out)
	}

	// The incumbent is untouched and still answers commands; once it exits,
	// the state dir is free again.
	d.send("status")
	d.waitFor("ok status")
	d.send("quit")
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("incumbent exited uncleanly: %v\n%s", err, d.log.String())
	}
	out, err = runScript(t, bin, "status\nquit\n", "-state-dir", state)
	if err != nil {
		t.Fatalf("merlind on a released state dir failed: %v\n%s", err, out)
	}
}

// TestMerlindSuperoptFlags: a -superopt deploy goes through the full
// lifecycle and reports superoptimizer activity in the registry; pointing
// -superopt-cache at the -state-dir is refused (both are exclusively
// locked).
func TestMerlindSuperoptFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	cacheDir := filepath.Join(t.TempDir(), "socache")
	script := strings.Join([]string{
		"deploy lb corpus:xdp2",
		"traffic lb 6",
		"metrics",
		"quit",
	}, "\n") + "\n"
	out, err := runScript(t, bin, script,
		"-shadow", "2", "-canary", "2", "-superopt", "-superopt-cache", cacheDir)
	if err != nil {
		t.Fatalf("merlind -superopt failed: %v\n%s", err, out)
	}
	series := parseMetrics(t, out)
	if series["merlin_superopt_windows_total"] == 0 {
		t.Errorf("no superopt windows recorded:\n%s", out)
	}
	if series["merlin_superopt_cache_misses_total"] == 0 {
		t.Error("cold deploy recorded zero cache misses")
	}

	// Same cache, fresh daemon: the warm deploy must search nothing.
	out, err = runScript(t, bin, script,
		"-shadow", "2", "-canary", "2", "-superopt", "-superopt-cache", cacheDir)
	if err != nil {
		t.Fatalf("warm merlind -superopt failed: %v\n%s", err, out)
	}
	series = parseMetrics(t, out)
	if got := series["merlin_superopt_searches_total"]; got != 0 {
		t.Errorf("warm deploy ran %d searches, want 0", got)
	}
	if series["merlin_superopt_cache_hits_total"] == 0 {
		t.Error("warm deploy recorded zero cache hits")
	}

	state := filepath.Join(t.TempDir(), "shared")
	out, err = runScript(t, bin, "quit\n",
		"-state-dir", state, "-superopt", "-superopt-cache", state)
	if err == nil {
		t.Fatalf("-superopt-cache == -state-dir accepted:\n%s", out)
	}
	if !strings.Contains(out, "must be different directories") {
		t.Errorf("missing conflict diagnostic:\n%s", out)
	}
}
