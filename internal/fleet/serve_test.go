package fleet

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"merlin/internal/metrics"
)

// loopbackWorker puts one in-process worker's Worker behind a real TCP
// listener running the shared serve loop, as merlind -control does.
func loopbackWorker(t *testing.T, lt *LocalTransport, name string, accepted *metrics.Counter) string {
	t.Helper()
	wk := lt.AddWorker(name, testWorkerConfig()).Worker
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Listen(ln, &wk.Auth, wk.Dispatch, accepted)
	return ln.Addr().String()
}

// Every malformed form of every verb answers the same single err line
// whether it arrives through LocalTransport.RPC or over a real socket: both
// are the one Serve loop in front of the one Worker.Dispatch.
func TestMalformedCommandsAnswerAlikeLocalAndTCP(t *testing.T) {
	const token = "hunter2"
	lt := NewLocalTransport()
	lt.AddWorker("local", testWorkerConfig())
	addr := loopbackWorker(t, lt, "tcp", nil)
	lt.SetToken("local", token)
	lt.SetToken("tcp", token)
	tcp := &TCP{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, tc := range []struct{ line, want string }{
		{"deploy", "err deploy: usage"},
		{"deploy s", "err deploy: usage"},
		{"deploy s nosuch:1", "err deploy: unknown test source"},
		{"deploy s bad:1", "err deploy: "},
		{"traffic", "err traffic: usage"},
		{"traffic s", "err traffic: usage"},
		{"traffic s x", "err traffic: traffic count must be a positive integer"},
		{"traffic s 0", "err traffic: traffic count must be a positive integer"},
		{"traffic s -3", "err traffic: traffic count must be a positive integer"},
		{"traffic s 4 5", "err traffic: usage"},
		{"traffic s 1048577", "err traffic: traffic count 1048577 exceeds the per-command maximum 1048576"},
		{"traffic nope 4", "err traffic: "},
		{"promote", "err promote: usage"},
		{"promote nope", "err promote: "},
		{"rollback", "err rollback: usage"},
		{"rollback a b", "err rollback: usage"},
		{"rollback nope", "err rollback: "},
		{"abort", "err abort: usage"},
		{"abort nope", "err abort: "},
		{"drain", "err drain: usage"},
		{"events", "err events: usage"},
		{"maps", "err maps: usage"},
		{"maps nope", "err maps: "},
		{"build", "err build: usage"},
		{"build pass:1", "err build: no build service"},
		{"cacheexport zz", "err cacheexport: since must be a non-negative integer"},
		{"cacheexport -1", "err cacheexport: since must be a non-negative integer"},
		{"cachemerge", "err cachemerge: usage"},
		{"cachemerge a b", "err cachemerge: usage"},
		{"cachemerge !!", "err cachemerge: bad base64"},
		{"noop", `err noop: unknown command "noop"`},
		{"quit", `err quit: unknown command "quit"`},
		{"# comment", `err #: unknown command "#"`},
	} {
		line := AuthLine(token, tc.line)
		local, err := lt.RPC(ctx, "local", line)
		if err != nil {
			t.Fatalf("%q local: %v", tc.line, err)
		}
		remote, err := tcp.RPC(ctx, addr, line)
		if err != nil {
			t.Fatalf("%q tcp: %v", tc.line, err)
		}
		if len(local) != 1 || !strings.HasPrefix(local[0], tc.want) {
			t.Errorf("%q local = %q, want one line starting %q", tc.line, local, tc.want)
		}
		if strings.Join(local, "\n") != strings.Join(remote, "\n") {
			t.Errorf("%q: local %q, tcp %q", tc.line, local, remote)
		}
	}

	// A missing, wrong or bare header — including nothing at all after
	// "auth <token>" — is the uniform refusal on both faces, and counted.
	probes := []string{"status", "auth wrong status", "auth " + token, "auth " + token + " "}
	for _, line := range probes {
		local, lerr := lt.RPC(ctx, "local", line)
		remote, rerr := tcp.RPC(ctx, addr, line)
		if lerr != nil || rerr != nil {
			t.Fatalf("%q: local err %v, tcp err %v", line, lerr, rerr)
		}
		for _, got := range [][]string{local, remote} {
			if len(got) != 1 || got[0] != "err unauthorized" {
				t.Errorf("%q = %q, want the uniform refusal", line, got)
			}
		}
	}
	for _, name := range []string{"local", "tcp"} {
		if n := lt.AuthFailures(name); n != int64(len(probes)) {
			t.Errorf("%s counted %d refusals, want %d", name, n, len(probes))
		}
	}
}

// An over-long request line is an application-level refusal, not a torn
// connection: the same pooled connection carries the next RPC, so a healthy
// worker's breaker never hears about it.
func TestOverlongLineKeepsConnection(t *testing.T) {
	reg := metrics.New()
	accepted := reg.Counter("accepted", "")
	lt := NewLocalTransport()
	addr := loopbackWorker(t, lt, "w", accepted)
	tcp := &TCP{Redials: reg.Counter("redials", "")}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rpc := func(line string) string {
		t.Helper()
		lines, err := tcp.RPC(ctx, addr, line)
		if err != nil {
			t.Fatalf("%.20q…: transport error %v", line, err)
		}
		if len(lines) != 1 {
			t.Fatalf("%.20q…: reply %q, want one line", line, lines)
		}
		return lines[0]
	}
	const verb = "cachemerge "
	if got := rpc(verb + strings.Repeat("A", MaxLine)); got != "err line too long" {
		t.Fatalf("over-long cachemerge = %q", got)
	}
	if got := rpc("tick"); got != "ok tick" {
		t.Fatalf("tick after the over-long line = %q", got)
	}
	// The limit counts the newline: MaxLine bytes on the wire still dispatch.
	if got := rpc(verb + strings.Repeat("A", MaxLine-1-len(verb))); !strings.HasPrefix(got, "err cachemerge: ") {
		t.Fatalf("cachemerge of exactly MaxLine bytes = %.40q", got)
	}
	if got := rpc(verb + strings.Repeat("A", MaxLine-len(verb))); got != "err line too long" {
		t.Fatalf("cachemerge of MaxLine+1 bytes = %.40q", got)
	}
	if accepted.Value() != 1 || tcp.Redials.Value() != 0 {
		t.Fatalf("connections=%d redials=%d, want the one pooled connection throughout",
			accepted.Value(), tcp.Redials.Value())
	}
}

// A single verdict that cannot fit one protocol line is an err reply the
// controller skips, not a cachedata line its scanner would choke on. (A
// delta of many entries is chunked instead: TestCacheSyncChunksPastLineLimit.)
func TestOversizedCacheExportIsAnErrReply(t *testing.T) {
	c, lt := testFleet(t, 2, Config{})
	lt.Cache("w1").Put(strings.Repeat("k", MaxLine), fedV(1))
	lines, err := lt.RPC(context.Background(), "w1", "cacheexport 0")
	if err != nil || len(lines) != 1 || !strings.HasPrefix(lines[0], "err cacheexport: the entry at 0 exceeds") {
		t.Fatalf("cacheexport = %.80q err=%v", lines, err)
	}
	rep, err := c.CacheSync()
	if err != nil || rep.Skipped != 1 || rep.Pulled != 1 {
		t.Fatalf("sync = %+v err=%v, want w1 skipped and w2 pulled", rep, err)
	}
}
