package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/chaos"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
)

func TestTCPTransportRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				line, _ := bufio.NewReader(c).ReadString('\n')
				line = strings.TrimSpace(line)
				switch line {
				case "status":
					fmt.Fprintln(c, "slot=s stage=live live=gen2 ni=4 served=1 mirrored=0")
					fmt.Fprintln(c, "ok status")
				case "hang":
					time.Sleep(10 * time.Second)
				default:
					fmt.Fprintln(c, "err unknown")
				}
			}(conn)
		}
	}()

	tr := &TCP{}
	ctx := context.Background()
	lines, err := tr.RPC(ctx, ln.Addr().String(), "status")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if _, ok := ReplyOK(lines); !ok {
		t.Fatalf("expected ok terminator: %v", lines)
	}
	st, err := lifecycle.ParseSlotStatus(lines[0])
	if err != nil || st.LiveGeneration != 2 {
		t.Fatalf("status line did not parse: %+v %v", st, err)
	}

	lines, err = tr.RPC(ctx, ln.Addr().String(), "bogus")
	if err != nil {
		t.Fatal(err)
	}
	if errLine, ok := ReplyErr(lines); !ok || errLine != "err unknown" {
		t.Fatalf("err reply = %v", lines)
	}

	// A server that never answers must fail by the context deadline, not
	// block the control plane.
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := tr.RPC(short, ln.Addr().String(), "hang"); err == nil {
		t.Fatal("hang RPC succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not enforced")
	}
}

// lineServer is a worker stand-in on a real loopback listener: like merlind's
// control listener it answers line after line on each connection until the
// peer closes it.
type lineServer struct {
	ln       net.Listener
	handle   func(line string) string // the whole reply, newline-terminated
	accepted atomic.Int64
	closed   chan struct{} // one event per connection the server saw end

	mu    sync.Mutex
	conns map[net.Conn]bool
}

func echoReply(line string) string { return "ok " + line + "\n" }

func startLineServer(t *testing.T, addr string, handle func(string) string) *lineServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &lineServer{ln: ln, handle: handle, conns: map[net.Conn]bool{},
		// Buffered past any test's connection count, so serve never blocks
		// on a test that does not read the events.
		closed: make(chan struct{}, 4096)}
	t.Cleanup(s.stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			s.mu.Lock()
			s.conns[conn] = true
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return s
}

func (s *lineServer) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.closed <- struct{}{}
	}()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if _, err := fmt.Fprint(conn, s.handle(sc.Text())); err != nil {
			return
		}
	}
}

func (s *lineServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every open connection, as a killed worker
// does.
func (s *lineServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]bool{}
}

func mustRPC(t *testing.T, tr *TCP, addr, line, want string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lines, err := tr.RPC(ctx, addr, line)
	if err != nil {
		t.Fatalf("RPC %q: %v", line, err)
	}
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("RPC %q answered %q, want %q", line, lines, want)
	}
}

func TestTCPReusesOneConnection(t *testing.T) {
	srv := startLineServer(t, "127.0.0.1:0", echoReply)
	tr := &TCP{}
	for i := 0; i < 50; i++ {
		line := fmt.Sprintf("ping %d", i)
		mustRPC(t, tr, srv.addr(), line, "ok "+line)
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Fatalf("50 sequential RPCs used %d connections, want 1", n)
	}
}

func TestTCPRedialsOnceAfterWorkerRestart(t *testing.T) {
	srv := startLineServer(t, "127.0.0.1:0", echoReply)
	addr := srv.addr()
	tr := &TCP{Redials: metrics.New().Counter("redials", "")}
	mustRPC(t, tr, addr, "before", "ok before")

	srv.stop()
	<-srv.closed // the pooled connection is dead on the server side
	srv2 := startLineServer(t, addr, echoReply)

	mustRPC(t, tr, addr, "after", "ok after")
	if n := tr.Redials.Value(); n != 1 {
		t.Fatalf("redials = %d, want 1", n)
	}
	if n := srv2.accepted.Load(); n != 1 {
		t.Fatalf("restarted server accepted %d connections, want 1", n)
	}
	// The fresh connection is pooled like any other.
	mustRPC(t, tr, addr, "again", "ok again")
	if tr.Redials.Value() != 1 || srv2.accepted.Load() != 1 {
		t.Fatalf("redials = %d, accepted = %d after a reuse of the fresh connection",
			tr.Redials.Value(), srv2.accepted.Load())
	}

	// A fresh dial that fails is reported, not retried.
	srv2.stop()
	<-srv2.closed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tr.RPC(ctx, addr, "nobody home"); err == nil {
		t.Fatal("RPC to a stopped server succeeded")
	}
	if n := tr.Redials.Value(); n != 2 {
		t.Fatalf("redials = %d, want 2 (the stale connection was retried once)", n)
	}
}

func TestTCPLateReplyIsNeverReused(t *testing.T) {
	release := make(chan struct{})
	srv := startLineServer(t, "127.0.0.1:0", func(line string) string {
		if line == "slow" {
			<-release
		}
		return echoReply(line)
	})
	tr := &TCP{}
	mustRPC(t, tr, srv.addr(), "warm", "ok warm") // pool a connection first

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := tr.RPC(ctx, srv.addr(), "slow")
	cancel()
	if err == nil {
		t.Fatal("slow RPC beat its deadline")
	}
	// The server now answers the first request, late; the connection that
	// carries "ok slow" must be gone from the pool.
	close(release)
	<-srv.closed
	mustRPC(t, tr, srv.addr(), "fast", "ok fast")
	if n := srv.accepted.Load(); n != 2 {
		t.Fatalf("accepted %d connections, want 2: the timed-out one must not be reused", n)
	}
}

func TestTCPConcurrentRPCsDoNotInterleave(t *testing.T) {
	srv := startLineServer(t, "127.0.0.1:0", echoReply)
	tr := &TCP{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 200; i++ {
				line := fmt.Sprintf("g%d-%d", g, i)
				lines, err := tr.RPC(ctx, srv.addr(), line)
				if err != nil || len(lines) != 1 || lines[0] != "ok "+line {
					t.Errorf("RPC %q = %q, %v", line, lines, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	tr.mu.Lock()
	idle := len(tr.idle[srv.addr()])
	tr.mu.Unlock()
	if idle > tcpIdlePerAddr {
		t.Fatalf("%d idle connections kept, cap is %d", idle, tcpIdlePerAddr)
	}
	// Every connection the pool did not keep has been closed.
	for n := srv.accepted.Load() - int64(idle); n > 0; n-- {
		select {
		case <-srv.closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d connections beyond the idle list still open", n)
		}
	}
}

func TestTCPLongReplyLines(t *testing.T) {
	srv := startLineServer(t, "127.0.0.1:0", func(line string) string {
		var n int
		fmt.Sscanf(line, "big %d", &n)
		return "ok " + strings.Repeat("x", n) + "\n"
	})
	tr := &TCP{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range []int{10, 100_000, 1_000_000, 10} { // grows past 4 KiB, then reuses the grown buffer
		lines, err := tr.RPC(ctx, srv.addr(), fmt.Sprintf("big %d", n))
		if err != nil || len(lines) != 1 || len(lines[0]) != n+3 {
			t.Fatalf("big %d: %d lines, %v", n, len(lines), err)
		}
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Fatalf("long replies used %d connections, want 1", n)
	}
	if _, err := tr.RPC(ctx, srv.addr(), fmt.Sprintf("big %d", 1<<20)); err == nil {
		t.Fatal("a reply line over 1 MiB was accepted")
	}
	mustRPC(t, tr, srv.addr(), "big 1", "ok x") // the failed connection is gone, not poisoned
}

func newChaosWorker(t *testing.T) (*LocalTransport, *LocalWorker) {
	t.Helper()
	lt := NewLocalTransport()
	w := lt.AddWorker("w1", testWorkerConfig())
	return lt, w
}

func deployGen(t *testing.T, lt *LocalTransport, name string) int {
	t.Helper()
	st, err := lt.Manager(name).StatusOf("s")
	if err != nil {
		return 0
	}
	if st.CandidateGeneration > 0 {
		return st.CandidateGeneration
	}
	return st.LiveGeneration
}

func TestChaosTransportFaults(t *testing.T) {
	ctx := context.Background()

	t.Run("drop has no side effect", func(t *testing.T) {
		lt, _ := newChaosWorker(t)
		ct := WithChaos(lt, chaos.NewNetSchedule(chaos.NetStep{Verb: "deploy", Fault: chaos.NetDrop}))
		if _, err := ct.RPC(ctx, "w1", "deploy s pass:0"); err == nil {
			t.Fatal("dropped RPC succeeded")
		}
		if g := deployGen(t, lt, "w1"); g != 0 {
			t.Fatalf("drop still deployed: gen=%d", g)
		}
		if ct.Stats().Faults[chaos.NetDrop] != 1 {
			t.Fatalf("stats = %+v", ct.Stats())
		}
	})

	t.Run("one-way loses the reply but lands the side effect", func(t *testing.T) {
		lt, _ := newChaosWorker(t)
		ct := WithChaos(lt, chaos.NewNetSchedule(chaos.NetStep{Verb: "deploy", Fault: chaos.NetOneWay}))
		if _, err := ct.RPC(ctx, "w1", "deploy s pass:0"); err == nil {
			t.Fatal("one-way RPC returned a reply")
		}
		if g := deployGen(t, lt, "w1"); g != 1 {
			t.Fatalf("one-way lost the request too: gen=%d", g)
		}
	})

	t.Run("dup executes twice", func(t *testing.T) {
		lt, _ := newChaosWorker(t)
		// First deploy cleanly (goes live), then a duplicated deploy: two
		// more builds, candidate ends at gen 3.
		if _, err := lt.RPC(ctx, "w1", "deploy s pass:0"); err != nil {
			t.Fatal(err)
		}
		ct := WithChaos(lt, chaos.NewNetSchedule(chaos.NetStep{Verb: "deploy", Fault: chaos.NetDup}))
		lines, err := ct.RPC(ctx, "w1", "deploy s pass:1")
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := parseDeployReply(lines)
		if !ok || rep.candGen != 3 {
			t.Fatalf("dup deploy reply = %v (parsed %+v)", lines, rep)
		}
	})

	t.Run("delay succeeds slower", func(t *testing.T) {
		lt, _ := newChaosWorker(t)
		ct := WithChaos(lt, chaos.NewNetSchedule(chaos.NetStep{Verb: "deploy", Fault: chaos.NetDelay}))
		ct.Delay = 20 * time.Millisecond
		start := time.Now()
		if _, err := ct.RPC(ctx, "w1", "deploy s pass:0"); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) < 20*time.Millisecond {
			t.Fatal("delay fault did not delay")
		}
	})

	t.Run("partition isolates one worker", func(t *testing.T) {
		lt := NewLocalTransport()
		lt.AddWorker("w1", lifecycle.Config{})
		lt.AddWorker("w2", lifecycle.Config{})
		part := chaos.NewPartition()
		part.Isolate("w2", chaos.NetOneWay)
		ct := WithChaos(lt, part)
		if _, err := ct.RPC(ctx, "w1", "status"); err != nil {
			t.Fatalf("w1 should be reachable: %v", err)
		}
		if _, err := ct.RPC(ctx, "w2", "status"); err == nil {
			t.Fatal("w2 should be partitioned")
		}
		part.Heal("w2")
		if _, err := ct.RPC(ctx, "w2", "status"); err != nil {
			t.Fatalf("healed partition still failing: %v", err)
		}
	})
}
