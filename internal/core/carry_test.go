package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"merlin/internal/analysis"
	"merlin/internal/bopt"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/superopt"
	"merlin/internal/verifier"
)

// The guarded pipeline carries each accepted lowering and its observation
// forward instead of recompiling and reloading the incumbent per pass. The
// oracle below is the pipeline without any carrying: every pass's reference
// is a fresh codegen.Compile of the pre-pass module (IR tier) or the pre-pass
// program itself (bytecode tier), and every verdict an independent
// guard.DiffPrograms call that loads both sides. If a carried reference were
// ever stale — a rolled-back candidate's lowering or observation leaking into
// the next comparison — the two would disagree on some injected fault.

type oracleOut struct {
	prog     *ebpf.Program
	failures []guard.PassFailure
}

func oraclePipeline(t *testing.T, mod *ir.Module, fnName string, opts Options, enabled func(Optimizer) bool) oracleOut {
	t.Helper()
	var out oracleOut
	copts := codegen.Options{MCPU: opts.MCPU, Hook: opts.Hook}
	inputs := func() []guard.Input { return guard.Inputs(opts.Hook, opts.GuardDiffInputs, guardDiffSeed) }
	failed := func(pass, tier string, kind guard.FailureKind, detail string) {
		out.failures = append(out.failures, guard.PassFailure{Pass: pass, Tier: tier, Kind: kind, Detail: detail})
	}

	cur := ir.Clone(mod)
	if _, err := irpass.Inline(cur); err != nil {
		t.Fatal(err)
	}
	(&irpass.Manager{Passes: irpass.Generic()}).Run(cur)
	for _, p := range []irpass.Pass{
		{Name: string(DAO), Run: irpass.DataAlignment},
		{Name: string(MoF), Run: irpass.MacroOpFusion},
	} {
		if !enabled(Optimizer(p.Name)) {
			continue
		}
		work := ir.Clone(cur)
		if f := guard.Exec(p.Name, "ir", opts.PassTimeout, func() error {
			opts.Injector.Before(p.Name, opts.PassTimeout)
			for _, fn := range work.Funcs {
				p.Run(fn)
			}
			opts.Injector.MutateIR(p.Name, work)
			return nil
		}); f != nil {
			out.failures = append(out.failures, *f)
			continue
		}
		if err := ir.Validate(work); err != nil {
			failed(p.Name, "ir", guard.FailInvariant, err.Error())
			continue
		}
		compiled, err := codegen.Compile(work, fnName, copts)
		if err != nil {
			failed(p.Name, "ir", guard.FailInvariant, fmt.Sprintf("does not lower: %v", err))
			continue
		}
		ref, err := codegen.Compile(cur, fnName, copts)
		if err != nil {
			t.Fatal(err)
		}
		if derr := guard.DiffPrograms(ref, compiled, inputs()); derr != nil {
			failed(p.Name, "ir", guard.FailDiff, derr.Error())
			continue
		}
		cur = work
	}
	prog, err := codegen.Compile(cur, fnName, copts)
	if err != nil {
		t.Fatal(err)
	}

	bopts := bopt.Options{ALU32: opts.KernelALU32}
	var passes []bopt.Pass
	for _, p := range bopt.Pipeline() {
		if enabled(Optimizer(p.Name)) {
			passes = append(passes, p)
		}
	}
	if len(passes) > 0 {
		if _, err := analysis.BuildCFG(prog); err != nil {
			t.Fatal(err)
		}
	}
	if opts.Superopt != nil {
		socfg := *opts.Superopt
		socfg.ALU32 = socfg.ALU32 || opts.KernelALU32
		passes = append(passes, bopt.Pass{Name: "SO", Run: func(p *ebpf.Program, _ bopt.Options) (*ebpf.Program, int, error) {
			np, st, err := superopt.Optimize(p, socfg)
			return np, st.Rewrites, err
		}})
	}
	for _, p := range passes {
		work := prog.Clone()
		var next *ebpf.Program
		if f := guard.Exec(p.Name, "bytecode", opts.PassTimeout, func() error {
			opts.Injector.Before(p.Name, opts.PassTimeout)
			n, _, err := p.Run(work, bopts)
			if err != nil {
				return err
			}
			next = opts.Injector.MutateBytecode(p.Name, n)
			return nil
		}); f != nil {
			out.failures = append(out.failures, *f)
			continue
		}
		if err := guard.ValidateProgram(next); err != nil {
			failed(p.Name, "bytecode", guard.FailInvariant, err.Error())
			continue
		}
		if derr := guard.DiffPrograms(prog, next, inputs()); derr != nil {
			failed(p.Name, "bytecode", guard.FailDiff, derr.Error())
			continue
		}
		prog = next
	}
	out.prog = prog
	return out
}

// oracleBuild adds final verification and the greedy culprit bisection.
func oracleBuild(t *testing.T, mod *ir.Module, fnName string, opts Options) (prog *ebpf.Program, failures []guard.PassFailure, fellBack string) {
	t.Helper()
	po := oraclePipeline(t, mod, fnName, opts, opts.enabled)
	vopts := verifier.Options{Version: opts.VerifierVersion, Limits: opts.VerifierLimits}
	st := verifier.Verify(po.prog, vopts)
	if st.Passed {
		return po.prog, po.failures, ""
	}
	failures = append(po.failures, guard.PassFailure{
		Pass: "verify", Tier: "final", Kind: guard.FailVerifier,
		Detail: fmt.Sprintf("optimized program rejected: %v", st.Err),
	})
	opts.Superopt = nil
	var kept []Optimizer
	var best *oracleOut
	for _, o := range AllOptimizers() {
		if !opts.enabled(o) {
			continue
		}
		trial := append(slices.Clone(kept), o)
		tp := oraclePipeline(t, mod, fnName, opts, func(x Optimizer) bool { return slices.Contains(trial, x) })
		if verifier.Verify(tp.prog, vopts).Passed {
			kept, best = trial, &tp
		}
	}
	if best == nil {
		return nil, failures, "baseline"
	}
	return best.prog, append(failures, best.failures...), "bisect"
}

func sameFailures(a, b []guard.PassFailure) bool {
	return slices.EqualFunc(a, b, func(x, y guard.PassFailure) bool {
		return x.Pass == y.Pass && x.Tier == y.Tier && x.Kind == y.Kind && x.Detail == y.Detail
	})
}

// TestCarriedReferenceMatchesIndependentDiffs runs the injector matrix (every
// failure mode in every guarded pass, on the demo and on a corpus program)
// through Build and through the oracle, and requires the same program, the
// same failure records and the same degradation.
func TestCarriedReferenceMatchesIndependentDiffs(t *testing.T) {
	var xdp2 *corpus.ProgramSpec
	for _, s := range corpus.XDP() {
		if s.Name == "xdp2" {
			xdp2 = s
		}
	}
	subjects := []struct {
		name string
		mod  *ir.Module
		fn   string
	}{
		{"demo", parseDemo(t), "count"},
		{"xdp2", xdp2.Mod, xdp2.Func},
	}
	passes := append(guard.DefaultPassNames(), "SO")
	for _, sub := range subjects {
		for _, mode := range guard.Modes() {
			for _, pass := range passes {
				t.Run(fmt.Sprintf("%s/%s/%s", sub.name, mode, pass), func(t *testing.T) {
					t.Parallel()
					if mode == guard.FaultStall && sub.name != "demo" {
						t.Skip("stall rows run on the demo, whose passes are far inside any budget")
					}
					opts := func() Options {
						o := guardedOpts(&guard.FaultInjector{Pass: pass, Mode: mode})
						o.Superopt = &superopt.Config{}
						if mode != guard.FaultStall {
							// Only an injected stall may overrun a budget: the
							// verdicts compared here must not depend on load.
							o.PassTimeout = 30 * time.Second
						}
						return o
					}
					res, err := Build(sub.mod, sub.fn, opts())
					if err != nil {
						t.Fatalf("guarded build aborted: %v", err)
					}
					wantProg, wantFailures, wantFellBack := oracleBuild(t, sub.mod, sub.fn, opts())
					if wantProg == nil {
						wantProg = res.Baseline
					}
					if !guard.SameProgram(res.Prog, wantProg) {
						t.Errorf("program differs from the independently validated one (%d vs %d insns)",
							len(res.Prog.Insns), len(wantProg.Insns))
					}
					if !sameFailures(res.PassFailures, wantFailures) {
						t.Errorf("failures differ:\n got %v\nwant %v", res.PassFailures, wantFailures)
					}
					if res.FellBack != wantFellBack {
						t.Errorf("FellBack = %q, oracle %q", res.FellBack, wantFellBack)
					}
					// The fault stays where it was injected: no pass after the
					// targeted one is blamed for a poisoned reference.
					for _, f := range res.PassFailures {
						if f.Tier != "final" && f.Pass != pass {
							t.Errorf("pass %s failed though only %s was faulted: %v", f.Pass, pass, f)
						}
					}
				})
			}
		}
	}
}

// TestBuildWorkCounts pins what a clean deployment build lowers and loads:
// three codegen.Compile calls (the baseline, which is also the first IR
// pass's reference, and one per IR pass; the last accepted lowering is the
// bytecode tier's input) and at most eight VM loads inside the guard (the
// baseline once, then each of the seven candidates once — fewer when a pass
// returns its input unchanged). Before lowerings and observations were
// carried these were six and fourteen.
func TestBuildWorkCounts(t *testing.T) {
	for _, spec := range corpus.XDP() {
		res, err := Build(spec.Mod, spec.Func, Options{
			Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
			Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: 30 * time.Second,
			Superopt: &superopt.Config{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PassFailures) != 0 {
			t.Fatalf("%s: not a clean build: %v", spec.Name, res.PassFailures)
		}
		if res.lowerings != 3 {
			t.Errorf("%s: %d lowerings, want 3", spec.Name, res.lowerings)
		}
		changed := 0
		for _, s := range res.Stats {
			if s.Applied > 0 {
				changed++
			}
		}
		if res.loads > 8 || res.loads > changed+1 {
			t.Errorf("%s: %d guard loads with %d passes changing the program, want at most %d",
				spec.Name, res.loads, changed, min(8, changed+1))
		}
	}
	// With differential validation off nothing is loaded; unguarded, the
	// baseline and the one post-IR lowering are all there is.
	spec := corpus.XDP()[0]
	res, err := Build(spec.Mod, spec.Func, Options{Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true, Guard: true})
	if err != nil || res.lowerings != 3 || res.loads != 0 {
		t.Errorf("guard without diff inputs: lowerings=%d loads=%d err=%v, want 3/0", res.lowerings, res.loads, err)
	}
	res, err = Build(spec.Mod, spec.Func, Options{Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true})
	if err != nil || res.lowerings != 2 || res.loads != 0 {
		t.Errorf("unguarded: lowerings=%d loads=%d err=%v, want 2/0", res.lowerings, res.loads, err)
	}
}
