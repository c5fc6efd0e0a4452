package fleet

import (
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
)

// LocalTransport hosts in-process workers, each a real lifecycle.Manager
// behind a miniature merlind dispatch speaking the same reply grammar as the
// daemon. It is the fleet test-bed: Kill drops a worker off the network like
// a SIGKILL (connections refused, state retained or lost per Restart), and
// wrapping the transport in WithChaos injects partitions in front of it.
type LocalTransport struct {
	mu      sync.Mutex
	workers map[string]*LocalWorker
}

func NewLocalTransport() *LocalTransport {
	return &LocalTransport{workers: map[string]*LocalWorker{}}
}

// LocalWorker is one in-process merlind stand-in.
type LocalWorker struct {
	mu   sync.Mutex
	name string
	mgr  *lifecycle.Manager
	reg  *metrics.Registry
	cfg  lifecycle.Config

	resolve func(desc string) (lifecycle.Source, error)
	seed    uint64
	traffic int64
	driver  lifecycle.Driver
	down    bool
	token   string          // control token; "" accepts everything
	socache *superopt.Cache // per-incarnation verdict cache (federation)
}

// AddWorker creates a worker reachable at an address equal to its name. The
// manager uses cfg with a fresh metrics registry injected.
func (lt *LocalTransport) AddWorker(name string, cfg lifecycle.Config) *LocalWorker {
	w := &LocalWorker{name: name, cfg: cfg, resolve: ResolveTestSource, seed: fnv64a(name)}
	w.reset()
	lt.mu.Lock()
	lt.workers[name] = w
	lt.mu.Unlock()
	return w
}

func (w *LocalWorker) reset() {
	w.reg = metrics.New()
	cfg := w.cfg
	cfg.Metrics = w.reg
	w.mgr = lifecycle.NewManager(cfg)
	// Like merlind's default in-memory verdict cache, a restart loses it.
	w.socache = superopt.NewMemCache()
}

// Kill makes the worker unreachable, as a SIGKILL would.
func (lt *LocalTransport) Kill(name string) {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		w.down = true
		w.mu.Unlock()
	}
}

// Restart brings a killed worker back. fresh discards its manager state —
// the restarted daemon came up with an empty (or absent) journal — which is
// precisely the case reconcile exists for.
func (lt *LocalTransport) Restart(name string, fresh bool) {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		w.down = false
		if fresh {
			w.reset()
		}
		w.mu.Unlock()
	}
}

// SetToken arms the worker's control-listener auth: RPCs must carry a
// matching "auth <token>" prefix or they are refused.
func (lt *LocalTransport) SetToken(name, token string) {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		w.token = token
		w.mu.Unlock()
	}
}

// AuthFailures reads the worker's refused-RPC counter. Per-incarnation: a
// Restart resets the registry along with the rest of the worker.
func (lt *LocalTransport) AuthFailures(name string) int64 {
	w := lt.get(name)
	if w == nil {
		return 0
	}
	w.mu.Lock()
	reg := w.reg
	w.mu.Unlock()
	return reg.Snapshot()["merlin_fleet_auth_failures_total"]
}

// Cache exposes the worker's superopt verdict cache for federation tests.
func (lt *LocalTransport) Cache(name string) *superopt.Cache {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.socache
	}
	return nil
}

// Manager exposes the worker's lifecycle manager for test assertions.
func (lt *LocalTransport) Manager(name string) *lifecycle.Manager {
	if w := lt.get(name); w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.mgr
	}
	return nil
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
	return w.dispatch(line), nil
}

// dispatch mirrors the merlind line protocol for the verbs the controller
// speaks. Replies reuse the daemon's exact grammar so the controller's
// parsers are exercised identically in-process and over TCP.
func (w *LocalWorker) dispatch(line string) []string {
	rest, authed := CheckAuth(w.token, line)
	if !authed {
		if w.reg != nil {
			w.reg.Counter("merlin_fleet_auth_failures_total",
				"control RPCs refused for a missing or wrong token").Inc()
		}
		return []string{"err unauthorized"}
	}
	args := strings.Fields(rest)
	if len(args) == 0 {
		return []string{"err empty command"}
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "deploy":
		if len(args) < 2 {
			return []string{"err usage: deploy <slot> <desc>"}
		}
		slot, desc := args[0], strings.Join(args[1:], " ")
		src, err := w.resolve(desc)
		if err != nil {
			return []string{"err " + err.Error()}
		}
		if err := w.mgr.DeployWith(slot, src, lifecycle.DeployOptions{SourceDesc: desc}); err != nil {
			return []string{"err " + err.Error()}
		}
		st, _ := w.mgr.StatusOf(slot)
		rep := fmt.Sprintf("ok deploy %s stage=%s live=gen%d", slot, st.Stage, st.LiveGeneration)
		if st.CandidateGeneration > 0 {
			rep += fmt.Sprintf(" candidate=gen%d", st.CandidateGeneration)
		}
		return []string{rep}
	case "promote":
		if len(args) < 1 {
			return []string{"err usage: promote <slot> [force]"}
		}
		force := len(args) > 1 && args[1] == "force"
		if err := w.mgr.Promote(args[0], force); err != nil {
			return []string{"err " + err.Error()}
		}
		st, _ := w.mgr.StatusOf(args[0])
		return []string{fmt.Sprintf("ok promote %s live=gen%d", args[0], st.LiveGeneration)}
	case "rollback":
		if len(args) != 1 {
			return []string{"err usage: rollback <slot>"}
		}
		if err := w.mgr.Rollback(args[0]); err != nil {
			return []string{"err " + err.Error()}
		}
		st, _ := w.mgr.StatusOf(args[0])
		return []string{fmt.Sprintf("ok rollback %s live=gen%d", args[0], st.LiveGeneration)}
	case "abort":
		if len(args) != 1 {
			return []string{"err usage: abort <slot>"}
		}
		if err := w.mgr.Abort(args[0]); err != nil {
			return []string{"err " + err.Error()}
		}
		st, _ := w.mgr.StatusOf(args[0])
		return []string{fmt.Sprintf("ok abort %s live=gen%d", args[0], st.LiveGeneration)}
	case "status":
		var out []string
		for _, st := range w.mgr.Status() {
			out = append(out, st.String())
		}
		return append(out, "ok status")
	case "traffic":
		if len(args) != 2 {
			return []string{"err usage: traffic <slot> <n>"}
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return []string{"err traffic count must be a positive integer"}
		}
		inputs := guard.Inputs(ebpf.HookXDP, n, int64(w.seed)+w.traffic)
		w.traffic += int64(n)
		if err := w.driver.Drive(w.mgr, args[0], inputs, nil); err != nil {
			return []string{"err " + err.Error()}
		}
		st, _ := w.mgr.StatusOf(args[0])
		return []string{fmt.Sprintf("ok traffic %s n=%d stage=%s served=%d mirrored=%d eseq=%d",
			args[0], n, st.Stage, st.Served, st.Mirrored, st.EventSeq)}
	case "drain":
		if len(args) != 1 {
			return []string{"err usage: drain <slot>"}
		}
		removed := w.mgr.Remove(args[0])
		return []string{fmt.Sprintf("ok drain %s removed=%v", args[0], removed)}
	case "tick":
		w.mgr.Tick()
		return []string{"ok tick"}
	case "metrics":
		w.mgr.CollectMetrics()
		out := strings.Split(strings.TrimRight(w.reg.Text(), "\n"), "\n")
		return append(out, "ok metrics")
	case "cacheexport":
		var since uint64
		if len(args) > 0 {
			v, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return []string{"err cacheexport: since must be a non-negative integer"}
			}
			since = v
		}
		blob, seq, n, err := w.socache.Export(since)
		if err != nil {
			return []string{"err cacheexport: " + err.Error()}
		}
		return []string{
			"cachedata " + base64.StdEncoding.EncodeToString(blob),
			fmt.Sprintf("ok cacheexport seq=%d entries=%d", seq, n),
		}
	case "cachemerge":
		if len(args) != 1 {
			return []string{"err usage: cachemerge <base64-blob>"}
		}
		blob, err := base64.StdEncoding.DecodeString(args[0])
		if err != nil {
			return []string{"err cachemerge: bad base64"}
		}
		st, err := w.socache.Merge(blob)
		if err != nil {
			return []string{"err cachemerge: " + err.Error()}
		}
		return []string{fmt.Sprintf("ok cachemerge added=%d known=%d total=%d",
			st.Added, st.Known, w.socache.Len())}
	default:
		return []string{fmt.Sprintf("err unknown command %q", cmd)}
	}
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
