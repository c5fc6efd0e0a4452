package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"merlin/internal/chaos"
	"merlin/internal/core"
	"merlin/internal/ebpf"
	"merlin/internal/fleet"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/vm"
)

const testSeed = 7

// newTestDaemon assembles the shared fleet.Worker the way main does for the
// parts deploy and traffic touch, with merlind's default gates.
func newTestDaemon() *daemon {
	reg := metrics.New()
	d := &daemon{
		Worker: &fleet.Worker{Reg: reg, Seed: testSeed},
		fs:     chaos.OS(),
		buildOpts: core.Options{
			Hook: ebpf.HookXDP, MCPU: 2, KernelALU32: true,
			GuardDiffInputs: 4, PassTimeout: guard.DefaultTimeout,
			Metrics: core.NewMetrics(reg),
		},
	}
	d.Resolve = d.resolveSource
	d.Mgr = lifecycle.NewManager(lifecycle.Config{
		ShadowRuns: 32, CanaryRuns: 32, CycleSlack: 0.10,
		MaxRetries: 3, Metrics: reg,
		VM: vm.Config{Seed: testSeed, Metrics: vm.NewMetrics(reg)},
	})
	return d
}

func mustDispatch(t *testing.T, d *daemon, line string) string {
	t.Helper()
	var out bytes.Buffer
	if err := d.Dispatch(&out, line); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return strings.TrimSpace(out.String())
}

// replyVerdicts reads the verdicts[...] histogram off a traffic reply.
func replyVerdicts(t *testing.T, reply string) map[string]int {
	t.Helper()
	_, rest, ok := strings.Cut(reply, "verdicts[")
	body, _, ok2 := strings.Cut(rest, "]")
	if !ok || !ok2 {
		t.Fatalf("no verdicts in %q", reply)
	}
	out := map[string]int{}
	for _, kv := range strings.Fields(body) {
		k, v, _ := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad verdict %q in %q", kv, reply)
		}
		out[k] = n
	}
	return out
}

// lifecycleSeries is the manager's own telemetry: what must not depend on
// whether packets arrived one by one or in batches.
func lifecycleSeries(d *daemon) map[string]int64 {
	d.Mgr.CollectMetrics()
	out := map[string]int64{}
	for k, v := range d.Reg.Snapshot() {
		if strings.HasPrefix(k, "merlin_lifecycle_") {
			out[k] = v
		}
	}
	return out
}

// The traffic command serves through ServeBatch; it must answer exactly what
// n per-packet Serve calls over the same guard.Inputs stream answer — verdict
// histogram, the slot status the reply ends with and the manager's counters
// — in steady state, with an equivalent candidate mirrored through shadow and
// canary, and with a diverging one rejected mid-chunk.
func TestTrafficMatchesPerPacketServe(t *testing.T) {
	for _, prog := range []string{"xdp2", "xdp_router_ipv4", "xdp_fwd", "xdp-balancer"} {
		for _, mode := range []struct{ name, cand string }{ // cand: the second deploy, "" for none
			{"steady", ""}, {"shadow", prog}, {"rejected", "xdp1"},
		} {
			t.Run(prog+"/"+mode.name, func(t *testing.T) {
				batched, single := newTestDaemon(), newTestDaemon()
				for _, d := range []*daemon{batched, single} {
					mustDispatch(t, d, "deploy s corpus:"+prog)
					if mode.cand != "" {
						mustDispatch(t, d, "deploy s corpus:"+mode.cand)
					}
				}
				// Two commands: the second continues the input stream where
				// the first stopped, and 300 is not a multiple of the chunk.
				var offset int64
				for _, n := range []int{300, 77} {
					reply := mustDispatch(t, batched, fmt.Sprintf("traffic s %d", n))
					want := map[string]int{}
					for _, in := range guard.Inputs(ebpf.HookXDP, n, testSeed+offset) {
						rv, _, err := single.Mgr.Serve("s", in.Ctx, in.Pkt)
						if err != nil {
							t.Fatal(err)
						}
						want[fleet.VerdictName(rv)]++
					}
					offset += int64(n)
					if got := replyVerdicts(t, reply); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("traffic s %d: verdicts %v, per-packet Serve gives %v", n, got, want)
					}
					bs, _ := batched.Mgr.StatusOf("s")
					ss, _ := single.Mgr.StatusOf("s")
					if bs.String() != ss.String() {
						t.Fatalf("traffic s %d: status\n  %s\nper-packet Serve gives\n  %s", n, bs, ss)
					}
					// The reply is one line, "ok traffic s n=<n> verdicts[...]
					// <status>", and its status is the slot's, field for field.
					head := fmt.Sprintf("ok traffic s n=%d verdicts[", n)
					_, tail, ok := strings.Cut(reply, "] ")
					if !strings.HasPrefix(reply, head) || !ok || strings.Contains(reply, "\n") {
						t.Fatalf("reply %q is not %q...] <status>", reply, head)
					}
					got, err := lifecycle.ParseSlotStatus(tail)
					ss.Events = nil
					if err != nil || !reflect.DeepEqual(got, ss) {
						t.Fatalf("reply status %q parses to %+v (%v), per-packet Serve gives %+v", tail, got, err, ss)
					}
				}
				got, want := lifecycleSeries(batched), lifecycleSeries(single)
				if want[`merlin_lifecycle_served_total{slot="s"}`] != 377 {
					t.Fatalf("reference served_total = %d, want 377", want[`merlin_lifecycle_served_total{slot="s"}`])
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("lifecycle metrics differ:\n  batched %v\n  single  %v", got, want)
				}
			})
		}
	}
}

// In steady state the whole traffic command, inputs included, allocates a
// small fixed count: the same at 256 and at 4096 packets, nothing per packet.
func TestDriveAllocsPerPacket(t *testing.T) {
	d := newTestDaemon()
	mustDispatch(t, d, "deploy s corpus:xdp2")
	perCommand := map[int]float64{}
	for _, n := range []int{256, 4096} {
		traffic := fmt.Sprintf("traffic s %d", n)
		mustDispatch(t, d, traffic) // sizes the reused buffers
		perCommand[n] = testing.AllocsPerRun(5, func() {
			if err := d.Dispatch(io.Discard, traffic); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perCommand[256] != perCommand[4096] || perCommand[4096] > 4 {
		t.Fatalf("traffic command allocates %v times at 256 packets, %v at 4096; want the same small count",
			perCommand[256], perCommand[4096])
	}
}

// TestCorpusOperandResolvedOnce: a corpus: operand resolves to the one module
// the process generated — every deploy, build and journal re-attach used to
// regenerate and re-validate all 19 programs — and only a build request pays
// for the module's canonical text.
func TestCorpusOperandResolvedOnce(t *testing.T) {
	d := newTestDaemon()
	a, err := d.resolveOperand("corpus:xdp2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.resolveOperand("corpus:xdp2")
	if err != nil {
		t.Fatal(err)
	}
	if a.mod != b.mod {
		t.Fatal("corpus module regenerated between two resolves")
	}
	if a.text != nil {
		t.Fatal("resolving a corpus operand printed its text before any build asked for it")
	}
	req, err := d.buildRequest("corpus:xdp2")
	if err != nil {
		t.Fatal(err)
	}
	if want := ir.Print(a.mod); string(req.Source) != want || req.Func != a.fn {
		t.Fatalf("build request source is not the module's canonical text (func %q)", req.Func)
	}
	if _, err := d.resolveOperand("corpus:nope"); err == nil {
		t.Fatal("unknown corpus program resolved")
	}
}
