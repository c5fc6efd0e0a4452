package fleet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"

	"merlin/internal/metrics"
)

// Transport carries one line-protocol RPC to a worker merlind and returns
// every response line up to and including the terminating "ok ..." or
// "err ..." line. The returned error covers transport-level failures only
// (dial, deadline, torn stream); an application-level failure is a normal
// reply whose last line starts with "err " — the distinction matters because
// only transport failures feed the circuit breaker and health machine.
//
// The controller performs every worker interaction through this interface,
// so its tests swap in in-process workers and injected network faults
// without a socket in sight.
type Transport interface {
	RPC(ctx context.Context, addr, line string) ([]string, error)
}

// ReplyOK returns the terminating line when the reply reports success.
func ReplyOK(lines []string) (string, bool) {
	if len(lines) == 0 {
		return "", false
	}
	last := lines[len(lines)-1]
	if last == "ok" || strings.HasPrefix(last, "ok ") {
		return last, true
	}
	return "", false
}

// ReplyErr returns the terminating error line when the reply reports an
// application-level failure.
func ReplyErr(lines []string) (string, bool) {
	if len(lines) == 0 {
		return "", false
	}
	last := lines[len(lines)-1]
	if strings.HasPrefix(last, "err ") {
		return last, true
	}
	return "", false
}

// isTerminator reports whether a response line ends an RPC.
func isTerminator(line string) bool {
	return line == "ok" || strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "err ")
}

// TCP is the production transport. It keeps worker connections open: a
// connection that carried a complete, well-formed reply goes onto a small
// per-address idle list and serves the next RPC to that address, so steady
// traffic pays neither a dial nor a buffer allocation per exchange.
//
// Partition tolerance rests on three rules rather than on closing after
// every RPC:
//
//   - the context deadline covers each exchange whole (write and read), so a
//     half-open connection costs one timed-out RPC and no more;
//   - a connection is reused only after a complete reply. Any error or
//     deadline closes it, so a reply that arrives late dies with its
//     connection and is never read by the next RPC;
//   - a reused connection that fails before a single reply byte arrives, and
//     not by timeout, is what a restarted worker or a peer that closed an
//     idle connection looks like. It is discarded and the RPC retried once on
//     a fresh dial inside the same deadline, so a stale pooled connection
//     never feeds the breaker and health machine. The request may have been
//     delivered on the dead connection too; duplicate delivery is already in
//     the controller's contract (chaos.NetDup and chaos.NetOneWay test it).
//     A failure on a fresh connection, or after reply bytes, is reported.
//
// TCP keep-alive is on at both ends (the defaults of net.Dialer and
// net.Listen), so the kernel reaps idle connections to a vanished peer.
//
// The zero value is ready to use; a TCP must not be copied after first use.
type TCP struct {
	// Dialer's Timeout bounds connection establishment on top of the
	// context deadline.
	Dialer net.Dialer
	// Redials, when set, counts RPCs retried on a fresh dial because their
	// pooled connection had gone stale.
	Redials *metrics.Counter

	mu   sync.Mutex
	idle map[string][]*tcpConn // per address, most recently used last
}

const (
	// tcpIdlePerAddr caps the idle connections kept per address; the
	// controller's RPCs to one worker are almost always sequential.
	tcpIdlePerAddr = 2
	// A reply line may grow a connection's read buffer from tcpReadBuf up to
	// MaxLine; a longer line fails the RPC.
	tcpReadBuf = 4096
)

// tcpConn is one worker connection and the line scanner that lives with it,
// so the read buffer is allocated once per connection, not once per RPC.
type tcpConn struct {
	net.Conn
	sc      *bufio.Scanner
	reused  bool // taken from the idle list, not dialed for this RPC
	replied bool // a reply byte has arrived in the current exchange
}

func (c *tcpConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.replied = true
	}
	return n, err
}

func (t *TCP) RPC(ctx context.Context, addr, line string) ([]string, error) {
	c, err := t.conn(ctx, addr)
	if err != nil {
		return nil, err
	}
	lines, err := c.exchange(ctx, line)
	if err != nil && c.reused && !c.replied && !isTimeout(ctx, err) {
		if t.Redials != nil {
			t.Redials.Inc()
		}
		if c, err = t.dial(ctx, addr); err != nil {
			return nil, err
		}
		lines, err = c.exchange(ctx, line)
	}
	if err != nil {
		return nil, err
	}
	t.release(addr, c)
	return lines, nil
}

// conn takes the most recently used idle connection to addr, or dials.
func (t *TCP) conn(ctx context.Context, addr string) (*tcpConn, error) {
	t.mu.Lock()
	if l := t.idle[addr]; len(l) > 0 {
		c := l[len(l)-1]
		t.idle[addr] = l[:len(l)-1]
		t.mu.Unlock()
		c.reused = true
		return c, nil
	}
	t.mu.Unlock()
	return t.dial(ctx, addr)
}

func (t *TCP) dial(ctx context.Context, addr string) (*tcpConn, error) {
	nc, err := t.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpConn{Conn: nc}
	c.sc = bufio.NewScanner(c)
	c.sc.Buffer(make([]byte, 0, tcpReadBuf), MaxLine)
	return c, nil
}

// release returns a connection whose exchange completed to the idle list, or
// closes it when the list is full.
func (t *TCP) release(addr string, c *tcpConn) {
	t.mu.Lock()
	keep := len(t.idle[addr]) < tcpIdlePerAddr
	if keep {
		if t.idle == nil {
			t.idle = map[string][]*tcpConn{}
		}
		t.idle[addr] = append(t.idle[addr], c)
	}
	t.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// exchange performs one request/reply under the context deadline. On any
// error the connection is closed: whatever the peer still sends on it must
// not reach a later RPC.
func (c *tcpConn) exchange(ctx context.Context, line string) (lines []string, err error) {
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	c.replied = false
	dl, _ := ctx.Deadline() // the zero time clears a previous RPC's deadline
	if err := c.SetDeadline(dl); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c.Conn, line+"\n"); err != nil {
		return nil, err
	}
	for c.sc.Scan() {
		l := c.sc.Text()
		lines = append(lines, l)
		if isTerminator(l) {
			return lines, nil
		}
	}
	if err := c.sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("fleet: connection closed mid-reply")
}

// isTimeout reports whether an exchange failed because its time ran out
// rather than because the connection was dead.
func isTimeout(ctx context.Context, err error) bool {
	var ne net.Error
	return ctx.Err() != nil || (errors.As(err, &ne) && ne.Timeout())
}
