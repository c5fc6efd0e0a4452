package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"merlin/internal/metrics"
)

// The line-protocol server: every face that speaks the protocol — a worker's
// stdin and control listener, the controller's stdin and listener, and the
// tests' in-process workers — runs Serve over its own reader,
// writer and DispatchFunc, so framing, auth and the reply grammar exist once.

// MaxLine bounds one protocol line, newline included, in either direction:
// servers refuse a longer request with "err line too long" and TCP fails an
// RPC whose reply carries a longer line.
const MaxLine = 1 << 20

// serveReadBuf is the per-connection read buffer; only a line that outgrows
// it is copied into a spill buffer that may grow to MaxLine.
const serveReadBuf = 4096

// DispatchFunc executes one command line (trimmed, non-empty, auth header
// already stripped) and writes its reply lines to w. A returned error becomes
// the terminating "err <verb>: <msg>" line.
type DispatchFunc func(w io.Writer, line string) error

// ErrQuit, returned by a DispatchFunc, ends Serve without a reply line.
var ErrQuit = errors.New("quit")

// Auth is the challenge a network face puts to every line it reads.
type Auth struct {
	// Token is the shared secret; "" accepts everything (see CheckAuth).
	Token string
	// Refused counts lines refused for a missing or wrong token.
	Refused *metrics.Counter
}

// NewAuth returns the challenge for token, counting refusals in reg.
func NewAuth(token string, reg *metrics.Registry) Auth {
	return Auth{Token: token, Refused: reg.Counter("merlin_fleet_auth_failures_total",
		"control RPCs refused for a missing or wrong token")}
}

// Serve reads command lines from r until EOF and answers each on w. A nil
// auth is the local operator and is never challenged; otherwise every line
// must pass CheckAuth or is answered "err unauthorized". Blank lines are
// skipped. A line longer than MaxLine is discarded up to its newline and
// answered "err line too long" — an application-level reply, so the stream
// stays usable. failed reports whether any line was answered with an err
// (refusals aside); quit whether dispatch returned ErrQuit; err is a read
// error other than EOF.
func Serve(r io.Reader, w io.Writer, auth *Auth, dispatch DispatchFunc) (failed, quit bool, err error) {
	lr := lineReader{br: bufio.NewReaderSize(r, serveReadBuf)}
	for {
		raw, tooLong, rerr := lr.next()
		line := strings.TrimSpace(string(raw))
		switch {
		case tooLong:
			failed = true
			fmt.Fprintln(w, "err line too long")
		case line == "":
		default:
			if auth != nil {
				rest, ok := CheckAuth(auth.Token, line)
				if !ok {
					auth.Refused.Inc()
					fmt.Fprintln(w, "err unauthorized")
					break
				}
				line = rest
			}
			switch derr := dispatch(w, line); {
			case errors.Is(derr, ErrQuit):
				return failed, true, nil
			case derr != nil:
				failed = true
				fmt.Fprintf(w, "err %s: %v\n", strings.Fields(line)[0], derr)
			}
		}
		if rerr == io.EOF {
			return failed, false, nil
		}
		if rerr != nil {
			return failed, false, rerr
		}
	}
}

// Listen accepts connections on ln until it is closed and runs Serve on each.
// A transient accept error is logged and retried; it never takes the process
// down. accepted, when set, counts connections.
func Listen(ln net.Listener, auth *Auth, dispatch DispatchFunc, accepted *metrics.Counter) {
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "merlind: accept on %s: %v\n", ln.Addr(), err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if accepted != nil {
			accepted.Inc()
		}
		go func() {
			defer conn.Close()
			_, _, _ = Serve(conn, conn, auth, dispatch) // a torn connection just ends its loop
		}()
	}
}

// lineReader yields newline-terminated lines of at most MaxLine bytes
// without copying the ones that fit the read buffer.
type lineReader struct {
	br    *bufio.Reader
	spill []byte
}

// next returns the next line, or tooLong once an over-long line has been
// consumed through its newline. err is io.EOF (possibly alongside a final
// unterminated line) or the underlying read error.
func (lr *lineReader) next() (line []byte, tooLong bool, err error) {
	lr.spill = lr.spill[:0]
	n := 0
	for {
		frag, err := lr.br.ReadSlice('\n')
		n += len(frag)
		if err == bufio.ErrBufferFull {
			if n <= MaxLine {
				lr.spill = append(lr.spill, frag...)
			}
			continue
		}
		if n > MaxLine {
			return nil, true, err
		}
		if len(lr.spill) > 0 {
			lr.spill = append(lr.spill, frag...)
			frag = lr.spill
		}
		return frag, false, err
	}
}
