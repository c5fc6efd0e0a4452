package fleet

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
)

// LocalTransport hosts in-process workers: each is the same Worker merlind
// serves on its control listener, over a real lifecycle.Manager, and every
// RPC runs the same Serve loop a TCP connection does — so controller tests and
// soaks exercise the daemon's protocol code, not a stand-in. It is the fleet
// test-bed: Kill drops a worker off the network like a SIGKILL (connections
// refused, state retained or lost per Restart), and wrapping the transport in
// WithChaos injects partitions in front of it.
type LocalTransport struct {
	mu      sync.Mutex
	workers map[string]*LocalWorker
}

func NewLocalTransport() *LocalTransport {
	return &LocalTransport{workers: map[string]*LocalWorker{}}
}

// LocalWorker is one in-process worker: a Worker that can be taken off the
// network and restarted.
type LocalWorker struct {
	mu sync.Mutex
	*Worker
	cfg  lifecycle.Config
	down bool
}

// AddWorker creates a worker reachable at an address equal to its name. The
// manager uses cfg with a fresh metrics registry injected; deploys resolve
// through ResolveTestSource.
func (lt *LocalTransport) AddWorker(name string, cfg lifecycle.Config) *LocalWorker {
	w := &LocalWorker{cfg: cfg}
	w.reset(name, "")
	lt.mu.Lock()
	lt.workers[name] = w
	lt.mu.Unlock()
	return w
}

// reset gives the worker the state of a freshly started daemon: a new
// registry and manager and, like merlind's default in-memory verdict cache,
// an empty superopt cache.
func (w *LocalWorker) reset(name, token string) {
	reg := metrics.New()
	cfg := w.cfg
	cfg.Metrics = reg
	w.Worker = &Worker{
		Mgr: lifecycle.NewManager(cfg), Reg: reg,
		Resolve: ResolveTestSource, Seed: int64(fnv64a(name)),
		Auth: NewAuth(token, reg), Cache: superopt.NewMemCache(),
	}
}

// with runs f on the named worker under its lock; an unknown name is ignored.
func (lt *LocalTransport) with(name string, f func(w *LocalWorker)) {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		f(w)
	}
}

// Kill makes the worker unreachable, as a SIGKILL would.
func (lt *LocalTransport) Kill(name string) {
	lt.with(name, func(w *LocalWorker) { w.down = true })
}

// Restart brings a killed worker back. fresh discards its manager state —
// the restarted daemon came up with an empty (or absent) journal — which is
// precisely the case reconcile exists for.
func (lt *LocalTransport) Restart(name string, fresh bool) {
	lt.with(name, func(w *LocalWorker) {
		w.down = false
		if fresh {
			w.reset(name, w.Auth.Token)
		}
	})
}

// SetToken arms the worker's control-listener auth: RPCs must carry a
// matching "auth <token>" prefix or they are refused.
func (lt *LocalTransport) SetToken(name, token string) {
	lt.with(name, func(w *LocalWorker) { w.Auth.Token = token })
}

// AuthFailures reads the worker's refused-RPC counter. Per-incarnation: a
// Restart resets the registry along with the rest of the worker.
func (lt *LocalTransport) AuthFailures(name string) (n int64) {
	lt.with(name, func(w *LocalWorker) { n = int64(w.Auth.Refused.Value()) })
	return n
}

// Cache exposes the worker's superopt verdict cache for federation tests.
func (lt *LocalTransport) Cache(name string) (c *superopt.Cache) {
	lt.with(name, func(w *LocalWorker) { c = w.Worker.Cache })
	return c
}

// Manager exposes the worker's lifecycle manager for test assertions.
func (lt *LocalTransport) Manager(name string) (m *lifecycle.Manager) {
	lt.with(name, func(w *LocalWorker) { m = w.Mgr })
	return m
}

func (lt *LocalTransport) get(name string) *LocalWorker {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.workers[name]
}

func (lt *LocalTransport) RPC(ctx context.Context, addr, line string) ([]string, error) {
	w := lt.get(addr)
	if w == nil {
		return nil, fmt.Errorf("local: no route to %q", addr)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down {
		return nil, fmt.Errorf("local: connection to %q refused", addr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var reply strings.Builder
	if _, _, err := Serve(strings.NewReader(line+"\n"), &reply, &w.Auth, w.Dispatch); err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(reply.String(), "\n"), "\n"), nil
}

// ---- test program sources ------------------------------------------------

// ResolveTestSource maps compact descriptors to deployable programs:
//
//	pass:N  — returns XDP_PASS with N instructions of dead ALU padding
//	drop:N  — returns XDP_DROP (diverges from any pass:* incumbent)
//	fault:N — dereferences out of bounds on every packet
//	bad:N   — the source itself fails to build
//
// The :N variant tag only differentiates generations; behavior depends on
// the prefix alone.
func ResolveTestSource(desc string) (lifecycle.Source, error) {
	kind, tag, _ := strings.Cut(desc, ":")
	pad, _ := strconv.Atoi(tag)
	if pad < 0 || pad > 1024 {
		pad = 0
	}
	var prog *ebpf.Program
	switch kind {
	case "pass":
		prog = testProg("pass-"+tag, 2, pad)
	case "drop":
		prog = testProg("drop-"+tag, 1, pad)
	case "fault":
		prog = &ebpf.Program{Name: "fault-" + tag, Hook: ebpf.HookXDP,
			Insns: []ebpf.Instruction{
				ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, 4096),
				ebpf.Exit(),
			}}
	case "bad":
		return func() (*core.Result, error) {
			return nil, fmt.Errorf("synthetic build failure (%s)", desc)
		}, nil
	default:
		return nil, fmt.Errorf("unknown test source %q", desc)
	}
	return func() (*core.Result, error) {
		return &core.Result{Prog: prog}, nil
	}, nil
}

// testProg reads the packet pointer and first byte (the canonical XDP
// preamble in this codebase), burns pad ALU instructions, and returns
// verdict.
func testProg(name string, verdict int32, pad int) *ebpf.Program {
	insns := []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R6, ebpf.R1, 0),
		ebpf.LoadMem(ebpf.SizeB, ebpf.R7, ebpf.R6, 0),
	}
	for i := 0; i < pad; i++ {
		insns = append(insns, ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R8, 1))
	}
	insns = append(insns, ebpf.Mov64Imm(ebpf.R0, verdict), ebpf.Exit())
	return &ebpf.Program{Name: name, Hook: ebpf.HookXDP, Insns: insns}
}
