package clitest

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// counterLine matches xdp_pktcntr's counter map dump; the map is 256 bytes,
// and a recovered map must come back whole.
var counterLine = regexp.MustCompile(`map cntrs_array bytes=256 u64\[0\]=(\d+)`)

// counters extracts every cntrs_array value printed by `maps` commands, in
// order.
func counters(t *testing.T, out string) []uint64 {
	t.Helper()
	var vals []uint64
	for _, m := range counterLine.FindAllStringSubmatch(out, -1) {
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatalf("bad counter in %q: %v", m[0], err)
		}
		vals = append(vals, v)
	}
	return vals
}

// runAndKill feeds script to a journaled merlind, waits for the output line
// marking the last command's ack, then SIGKILLs the process — no flush, no
// deferred cleanup, exactly the crash the journal exists for. It returns the
// transcript up to and including the marker.
func runAndKill(t *testing.T, bin, state, script, marker string) string {
	t.Helper()
	cmd := exec.Command(bin, "-state-dir", state, "-shadow", "2", "-canary", "2")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(stdin, script); err != nil {
		t.Fatal(err)
	}
	var transcript strings.Builder
	sc := bufio.NewScanner(stdout)
	seen := false
	for sc.Scan() {
		transcript.WriteString(sc.Text() + "\n")
		if strings.HasPrefix(sc.Text(), marker) {
			seen = true
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	if !seen {
		t.Fatalf("marker %q never appeared:\n%s", marker, transcript.String())
	}
	return transcript.String()
}

// deployPromoteScript drives the packet-counting corpus program to a
// promoted second generation with 16 packets served (6+6+4).
var deployPromoteScript = strings.Join([]string{
	"deploy smoke corpus:xdp_pktcntr",
	"traffic smoke 6",
	"deploy smoke corpus:xdp_pktcntr",
	"traffic smoke 6",
	"promote smoke",
	"traffic smoke 4",
	"maps smoke",
}, "\n") + "\n"

// TestMerlindCrashRecovery is the end-to-end acceptance scenario:
// deploy → promote → SIGKILL → restart with the same -state-dir recovers the
// live slot, its generation, and its map contents, and the packet counter
// continues from where it left off.
func TestMerlindCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	state := filepath.Join(t.TempDir(), "state")

	pre := runAndKill(t, bin, state, deployPromoteScript, "ok maps smoke")
	if !strings.Contains(pre, "ok promote smoke live=gen2") {
		t.Fatalf("session 1 never promoted:\n%s", pre)
	}
	preCounts := counters(t, pre)
	if len(preCounts) != 1 || preCounts[0] != 16 {
		t.Fatalf("pre-crash counter = %v, want [16] (6+6+4 packets)", preCounts)
	}

	// Session 2: same state dir. The journal must bring back the promoted
	// generation and the counter, which then keeps counting.
	script2 := strings.Join([]string{
		"status",
		"events smoke",
		"maps smoke",
		"traffic smoke 5",
		"maps smoke",
		"metrics",
		"quit",
	}, "\n") + "\n"
	out, err := runScript(t, bin, script2, "-state-dir", state, "-shadow", "2", "-canary", "2")
	if err != nil {
		t.Fatalf("restarted merlind failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"ok recover slots=1",
		"slot=smoke stage=live live=gen2",
		"[live] recovered",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("restart output missing %q:\n%s", want, out)
		}
	}
	postCounts := counters(t, out)
	if len(postCounts) != 2 || postCounts[0] != 16 || postCounts[1] != 21 {
		t.Fatalf("post-restart counters = %v, want [16 21] (recovered then continued)", postCounts)
	}
	series := parseMetrics(t, out)
	if got := series["merlin_lifecycle_recovered_slots"]; got != 1 {
		t.Errorf("merlin_lifecycle_recovered_slots = %d, want 1", got)
	}
	if got := series["merlin_journal_corrupt_records_total"]; got != 0 {
		t.Errorf("clean restart counted %d corrupt records", got)
	}
}

// TestMerlindTornJournalStartup: a journal with a torn tail (the classic
// crash-mid-write) must never prevent startup — the damaged suffix is
// dropped and counted, and the intact prefix still recovers the slot.
func TestMerlindTornJournalStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildMerlind(t)
	state := filepath.Join(t.TempDir(), "state")

	// Killed mid-session so the state lives in the journal (a clean exit
	// would have compacted it into the snapshot).
	runAndKill(t, bin, state, deployPromoteScript, "ok maps smoke")
	logPath := filepath.Join(state, "journal.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("killed session left an empty journal")
	}

	for _, torn := range []int{1, 7, len(raw) / 2} {
		if torn >= len(raw) {
			continue
		}
		dir := filepath.Join(t.TempDir(), "torn")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), raw[:len(raw)-torn], 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runScript(t, bin, "status\nmetrics\nquit\n",
			"-state-dir", dir, "-shadow", "2", "-canary", "2")
		if err != nil {
			t.Fatalf("torn=%d: startup failed: %v\n%s", torn, err, out)
		}
		if !strings.Contains(out, "ok recover slots=1") {
			t.Errorf("torn=%d: slot not recovered:\n%s", torn, out)
		}
		// Small tears only damage the final flush record; the promote record
		// before it must still be intact.
		if torn <= 7 && !strings.Contains(out, "live=gen2") {
			t.Errorf("torn=%d: promoted generation lost:\n%s", torn, out)
		}
		series := parseMetrics(t, out)
		if got := series["merlin_journal_corrupt_records_total"]; got < 1 {
			t.Errorf("torn=%d: merlin_journal_corrupt_records_total = %d, want >= 1", torn, got)
		}
	}
}
