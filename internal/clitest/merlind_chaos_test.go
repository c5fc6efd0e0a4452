package clitest

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMerlindFlagValidation: malformed lifecycle/durability flags are refused
// at startup with exit code 2 and a diagnostic naming the flag, instead of
// being silently clamped or defaulted.
func TestMerlindFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	cases := []struct {
		name  string
		flags []string
		want  string
	}{
		{"canary-fraction high", []string{"-canary-fraction", "1.5"}, "-canary-fraction must be in [0, 1]"},
		{"canary-fraction negative", []string{"-canary-fraction", "-0.1"}, "-canary-fraction must be in [0, 1]"},
		{"canary-fraction NaN", []string{"-canary-fraction", "NaN"}, "-canary-fraction must be in [0, 1]"},
		{"backoff negative", []string{"-backoff", "-1s"}, "-backoff must be positive"},
		{"backoff zero", []string{"-backoff", "0s"}, "-backoff must be positive"},
		// The retired storage knobs: a script still passing one is refused
		// loudly rather than silently running under the one durability rule.
		{"compact-every zero", []string{"-compact-every", "0"}, "flag provided but not defined: -compact-every"},
		{"compact-every negative", []string{"-compact-every", "-7"}, "flag provided but not defined: -compact-every"},
		{"fsync-policy unknown", []string{"-fsync-policy", "eventually"}, "flag provided but not defined: -fsync-policy"},
		{"fsync-interval negative", []string{"-fsync-interval", "-1ms"}, "flag provided but not defined: -fsync-interval"},
		{"fsync-batch zero", []string{"-fsync-batch", "0"}, "flag provided but not defined: -fsync-batch"},
		{"segment-bytes zero", []string{"-journal-segment-bytes", "0"}, "flag provided but not defined: -journal-segment-bytes"},
		{"rejoin-every zero", []string{"-rejoin-every", "0s"}, "-rejoin-every must be positive"},
		{"rejoin-every negative", []string{"-rejoin-every", "-1s"}, "-rejoin-every must be positive"},
		{"replication zero", []string{"-replication", "0"}, "-replication must be at least 1"},
		{"replication negative", []string{"-replication", "-2"}, "-replication must be at least 1"},
		{"control-token whitespace", []string{"-control-token", "two words"}, "-control-token must not contain whitespace"},
		{"name whitespace", []string{"-name", "w 1"}, "-name must not contain whitespace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runScript(t, bin, "quit\n", tc.flags...)
			if err == nil {
				t.Fatalf("merlind accepted %v:\n%s", tc.flags, out)
			}
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("exit = %v, want exit code 2", err)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestMerlindDegradedStartup: an unusable -state-dir (a regular file blocks
// a path component, so MkdirAll fails even for root) must NOT prevent
// startup — the daemon serves in-memory, reports the degradation in status
// and /metrics, and re-attaches the journal once the path becomes writable.
// After a clean exit the journal holds the full state, proving the
// re-attachment re-persisted the slots deployed during the outage.
func TestMerlindDegradedStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	root := t.TempDir()
	blocker := filepath.Join(root, "blocker")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(blocker, "state")

	d := startDaemon(t, bin, "-state-dir", state, "-listen", "127.0.0.1:0",
		"-shadow", "2", "-canary", "2")
	d.waitFor("merlind: -state-dir unavailable, serving in-memory (degraded): ")
	addr := strings.TrimPrefix(d.waitFor("ok listen "), "ok listen ")

	// Full lifecycle works while storage is broken.
	d.send("deploy lb corpus:xdp1")
	d.waitFor("ok deploy lb")
	d.send("traffic lb 4")
	d.waitFor("ok traffic lb")
	d.send("status")
	if line := d.waitFor("journal="); !strings.HasPrefix(line, "journal=degraded") {
		t.Fatalf("status health = %q, want journal=degraded", line)
	}
	d.waitFor("ok status")

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	series := parseMetrics(t, body.String())
	if got := series["merlin_journal_degraded"]; got != 1 {
		t.Errorf("merlin_journal_degraded = %d, want 1:\n%s", got, body.String())
	}
	if series["merlin_journal_degradations_total"] == 0 {
		t.Error("no degradation counted")
	}

	// Clear the blockage; the re-open loop (250ms backoff, doubling) should
	// attach the journal and re-persist the slot.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.send("status")
		line := d.waitFor("journal=")
		d.waitFor("ok status")
		if strings.HasPrefix(line, "journal=ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never re-attached; last health %q\n%s", line, d.log.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	d.send("quit")
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\n%s", err, d.log.String())
	}

	// The state deployed during the outage survived to disk: a fresh daemon
	// recovers slot lb without re-deploying.
	out, err := runScript(t, bin, "status\nquit\n", "-state-dir", state)
	if err != nil {
		t.Fatalf("recovery run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok recover") || !strings.Contains(out, "lb") {
		t.Errorf("recovered state missing slot lb:\n%s", out)
	}
}

// TestMerlindGroupCommitPolicy: a deploy → promote → restart cycle, with
// flushes after traffic grouping their records under one fsync; recovery
// still sees the promoted generation because stage transitions force their
// own fsync.
func TestMerlindGroupCommitPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	state := filepath.Join(t.TempDir(), "state")
	script := strings.Join([]string{
		"deploy lb corpus:xdp1",
		"traffic lb 4",
		"deploy lb corpus:xdp1",
		"traffic lb 8",
		"promote lb",
		"quit",
	}, "\n") + "\n"
	out, err := runScript(t, bin, script,
		"-state-dir", state, "-shadow", "2", "-canary", "2")
	if err != nil {
		t.Fatalf("first run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok promote lb live=gen2") {
		t.Fatalf("promotion missing:\n%s", out)
	}

	out, err = runScript(t, bin, "status\nquit\n", "-state-dir", state)
	if err != nil {
		t.Fatalf("recovery run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "live=gen2") {
		t.Errorf("recovered state lost the promoted generation:\n%s", out)
	}
}
