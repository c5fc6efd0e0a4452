// Package core is Merlin's top-level pipeline (Fig 1): it drives the
// clang-analog generic IR cleanup, Merlin's IR refinement (opt), lowering to
// eBPF bytecode (llc), and Merlin's bytecode refinement — then optionally
// checks the result against the simulated kernel verifier. It is the public
// API the command-line tools, examples and every experiment build on.
//
// With Options.Guard set, every Merlin pass runs inside internal/guard:
// panics are recovered, a wall-clock budget is enforced, pass outputs are
// validated (structural invariants plus optional differential execution) and
// any failure rolls the pipeline back to the pre-pass snapshot instead of
// aborting the build. If the final program is still rejected by the
// verifier, Build delta-debugs the enabled optimizer set to find the culprit
// passes and returns the best program that verifies — the baseline in the
// worst case — rather than an error.
package core

import (
	"fmt"
	"slices"
	"time"

	"merlin/internal/analysis"
	"merlin/internal/bopt"
	"merlin/internal/codegen"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/superopt"
	"merlin/internal/verifier"
)

// PipelineVersion versions what Build emits for a given module and Options:
// the IR passes, lowering, the bytecode passes and the guard's accept/reject
// decisions (superopt carries its own, superopt.Producer). Bump it whenever a
// change can move any program's output — buildsvc's artifact cache then reads
// everything built before as stale. TestProducerVersionsPinned fails when
// testdata/corpus_parity.golden moves without a bump.
const PipelineVersion = "core/1"

// Optimizer identifies one of the paper's six optimizations.
type Optimizer string

// The six optimizers (paper §3-§4) plus the shared dependency analysis.
const (
	CPDCE Optimizer = "CP&DCE" // Opt 1, bytecode tier
	SLM   Optimizer = "SLM"    // Opt 2, bytecode tier
	DAO   Optimizer = "DAO"    // Opt 3, IR tier
	MoF   Optimizer = "MoF"    // Opt 4, IR tier
	CC    Optimizer = "CC"     // Opt 5, bytecode tier
	PO    Optimizer = "PO"     // Opt 6, bytecode tier
)

// AllOptimizers lists every optimizer in pipeline order.
func AllOptimizers() []Optimizer {
	return []Optimizer{DAO, MoF, CPDCE, SLM, CC, PO}
}

// Options configures a build.
type Options struct {
	// Hook selects the attachment point (affects verification and helpers).
	Hook ebpf.HookType
	// MCPU is the compiler ISA level: 2 (no ALU32) or 3. Table 1 compiles
	// XDP and Tracee at v2, Sysdig and Tetragon at v3.
	MCPU int
	// KernelALU32 reports whether the target kernel's verifier tracks ALU32
	// soundly; it gates the CC optimizer even for v2-compiled programs.
	KernelALU32 bool
	// Enable holds the optimizers to run; nil means all of them.
	Enable []Optimizer
	// Verify runs the simulated kernel verifier on the optimized program.
	// Without Guard, a rejected optimized program fails the build; with
	// Guard, it triggers culprit bisection instead. A rejected *baseline* is
	// only recorded in Result.BaselineVerification, never an error.
	Verify bool
	// VerifierVersion selects pruning heuristics when Verify is set.
	VerifierVersion verifier.KernelVersion
	// VerifierLimits overrides the kernel complexity limits when Verify is
	// set; the zero value means verifier.DefaultLimits. Deployments tune
	// this to match older kernels' smaller budgets.
	VerifierLimits verifier.Limits

	// Guard enables pass-level fault isolation: each Merlin pass runs inside
	// internal/guard with panic containment, a time budget and validated
	// rollback, recording failures in Result.PassFailures instead of
	// aborting the build.
	Guard bool
	// GuardDiffInputs is the number of sampled inputs used to differentially
	// validate each guarded pass output against its input. Zero disables the
	// differential check; structural invariants always run.
	GuardDiffInputs int
	// PassTimeout is the per-pass wall-clock budget for guarded passes.
	// Zero means guard.DefaultTimeout.
	PassTimeout time.Duration
	// Injector deterministically injects faults into guarded passes; tests
	// and merlin-fuzz use it to prove containment. Nil injects nothing.
	Injector *guard.FaultInjector

	// Superopt, when set, runs the caching peephole superoptimizer tier
	// (internal/superopt) after the bytecode refinement, recorded as the
	// "SO" pass. ALU32 replacements are additionally allowed whenever
	// KernelALU32 is set. During culprit bisection the tier is disabled:
	// bisection isolates the paper's six optimizers.
	Superopt *superopt.Config

	// Metrics, when set, records build telemetry (builds, per-pass wall
	// time, rollbacks, bisections, fallbacks, verifier verdicts) into its
	// registry after every Build.
	Metrics *Metrics
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{Hook: ebpf.HookXDP, MCPU: 2, KernelALU32: true, Verify: true}
}

func (o Options) enabled(opt Optimizer) bool {
	return o.Enable == nil || slices.Contains(o.Enable, opt)
}

// PassStat is the unified per-pass timing/effect record.
type PassStat struct {
	Name     string
	Tier     string // "ir" or "bytecode"
	Applied  int
	Duration time.Duration
}

// Result is the outcome of a build.
type Result struct {
	// Prog is the final (optimized) program.
	Prog *ebpf.Program
	// Baseline is the clang-only program (generic passes + llc, no Merlin
	// optimizers) — the paper's "native pipeline" comparison point.
	Baseline *ebpf.Program
	// Stats records each Merlin pass (IR and bytecode tiers).
	Stats []PassStat
	// MerlinTime is the total time spent in Merlin's own optimizers
	// (excluding the baseline clang/llc work) — the Fig 13 metric.
	MerlinTime time.Duration
	// Verification holds verifier stats for the optimized program when
	// Options.Verify was set.
	Verification verifier.Stats
	// BaselineVerification holds verifier stats for the baseline.
	BaselineVerification verifier.Stats

	// PassFailures records passes that failed under guarding and were rolled
	// back to their pre-pass snapshot (empty for clean builds).
	PassFailures []guard.PassFailure
	// Superopt holds the superoptimizer tier's stats when Options.Superopt
	// was set (nil after a bisection fallback, which disables the tier).
	Superopt *superopt.Stats
	// Culprits holds the optimizers culprit bisection identified as
	// responsible for a final verifier rejection.
	Culprits []Optimizer
	// FellBack reports how a guarded build degraded: "" for a normal build,
	// "bisect" when culprit bisection chose an optimizer subset, "baseline"
	// when no optimized candidate verified.
	FellBack string

	// lowerings and loads count the codegen.Compile calls of the build and
	// the programs the guard loaded into a VM for differential validation
	// (bisection trials excluded), at their call sites; tests pin them.
	lowerings, loads int
}

// NIReduction returns the paper's compactness metric: the fraction of
// instructions removed relative to the baseline.
func (r *Result) NIReduction() float64 {
	b := r.Baseline.NI()
	if b == 0 {
		return 0
	}
	return float64(b-r.Prog.NI()) / float64(b)
}

// guardDiffSeed seeds the sampled inputs of guarded differential checks.
const guardDiffSeed = 1

// Build compiles function fnName of mod through the full Merlin pipeline.
// The input module is never mutated.
func Build(mod *ir.Module, fnName string, opts Options) (*Result, error) {
	res, err := build(mod, fnName, opts)
	opts.Metrics.record(opts, res, err)
	return res, err
}

func build(mod *ir.Module, fnName string, opts Options) (*Result, error) {
	if opts.MCPU == 0 {
		opts.MCPU = 2
	}
	res := &Result{}

	// Front end, run once: local functions are inlined (the verifier checks
	// them inside their callers; our llc analog requires a single flat
	// function) and the clang -O2 analog cleans up. Its lowering is the
	// baseline — and the program the Merlin pipeline starts from. Failures
	// here are fatal even under guarding: with no baseline there is nothing
	// to degrade to.
	front := ir.Clone(mod)
	if _, err := irpass.Inline(front); err != nil {
		return nil, fmt.Errorf("core: inline: %w", err)
	}
	(&irpass.Manager{Passes: irpass.Generic()}).Run(front)
	baseline, err := codegen.Compile(front, fnName, codegen.Options{MCPU: opts.MCPU, Hook: opts.Hook})
	if err != nil {
		return nil, fmt.Errorf("core: baseline: %w", err)
	}
	res.Baseline = baseline

	// Merlin pipeline: IR refinement + llc + bytecode refinement.
	po, err := runPipeline(front, baseline, fnName, opts, opts.enabled)
	if err != nil {
		return nil, err
	}
	res.Prog = po.prog
	res.Stats = po.stats
	res.MerlinTime = po.merlin
	res.PassFailures = po.failures
	res.Superopt = po.superopt
	res.lowerings = 1 + po.lowerings // the baseline's, then the pipeline's
	res.loads = po.loads

	if opts.Verify {
		vopts := verifier.Options{Version: opts.VerifierVersion, Limits: opts.VerifierLimits}
		res.BaselineVerification = verifier.Verify(baseline, vopts)
		res.Verification = verifier.Verify(res.Prog, vopts)
		if !res.Verification.Passed {
			if !opts.Guard {
				return nil, fmt.Errorf("core: optimized program rejected by verifier: %w", res.Verification.Err)
			}
			res.PassFailures = append(res.PassFailures, guard.PassFailure{
				Pass: "verify", Tier: "final", Kind: guard.FailVerifier,
				Detail: fmt.Sprintf("optimized program rejected: %v", res.Verification.Err),
			})
			bisectCulprits(front, fnName, opts, vopts, res)
		}
	}
	return res, nil
}

// BuildForDeploy is the load-time entry point used by the runtime lifecycle
// manager (internal/lifecycle): it is Build with guarding and verification
// forced on, because a deployment build must degrade — to a smaller optimizer
// subset or the baseline — rather than abort for an optimizer-caused
// failure, and must never stage a program the simulated verifier rejects
// without recording it. Differential-validation depth, the per-pass budget
// and the optimizer set still follow opts.
func BuildForDeploy(mod *ir.Module, fnName string, opts Options) (*Result, error) {
	opts.Guard = true
	opts.Verify = true
	return Build(mod, fnName, opts)
}

// pipeOut is one optimized-pipeline run: its outcome and, while it runs, the
// guarded pipeline's carried state. prog is the program every check so far
// has let through; obs is — once a candidate has been compared against it —
// its recorded behaviour on the sampled inputs. A candidate is lowered and
// loaded once: admitting it makes its lowering the next pass's reference and
// its observation the next comparison's "before". A rolled-back pass never
// reaches admit's assignments, so both stay at the pre-pass program.
type pipeOut struct {
	prog     *ebpf.Program
	obs      *guard.Observation // of prog; nil until a comparison needs it
	inputs   []guard.Input      // nil: differential validation is off
	stats    []PassStat
	merlin   time.Duration
	failures []guard.PassFailure
	superopt *superopt.Stats

	lowerings, loads int // see Result
}

// admit differentially validates cand against the accepted program and, on
// success, makes cand the accepted program. A candidate identical to the
// accepted program needs no run: the carried observation is its own.
func (o *pipeOut) admit(cand *ebpf.Program) error {
	if o.inputs != nil && !guard.SameProgram(o.prog, cand) {
		if o.obs == nil {
			o.obs = guard.Observe(o.prog, o.inputs)
			o.loads++
		}
		obs := guard.Observe(cand, o.inputs)
		o.loads++
		if err := guard.Diff(o.obs, obs); err != nil {
			return err
		}
		o.obs = obs
	}
	o.prog = cand
	return nil
}

// ran enters one completed pass in the stats and the Merlin time.
func (o *pipeOut) ran(st PassStat) {
	o.stats = append(o.stats, st)
	o.merlin += st.Duration
}

// runPipeline runs the optimized path — IR refinement, lowering, bytecode
// refinement — from front (the inlined, generically cleaned module, never
// mutated) and its lowering baseline, with the optimizer set restricted by
// enabled. With opts.Guard set, every Merlin pass is guarded and rolled back
// on failure, and each pass output is lowered once: the validated lowering of
// the last accepted IR pass is the program the bytecode tier starts from; a
// guarded run contains every failure and never returns an error.
func runPipeline(front *ir.Module, baseline *ebpf.Program, fnName string, opts Options, enabled func(Optimizer) bool) (*pipeOut, error) {
	out := &pipeOut{prog: baseline.Clone()}
	if opts.Guard && opts.GuardDiffInputs > 0 {
		out.inputs = guard.Inputs(opts.Hook, opts.GuardDiffInputs, guardDiffSeed)
	}

	var irPasses []irpass.Pass
	if enabled(DAO) {
		irPasses = append(irPasses, irpass.Pass{Name: string(DAO), Run: irpass.DataAlignment})
	}
	if enabled(MoF) {
		irPasses = append(irPasses, irpass.Pass{Name: string(MoF), Run: irpass.MacroOpFusion})
	}
	if opts.Guard {
		optMod := front
		for _, p := range irPasses {
			optMod = runGuardedIRPass(optMod, p, fnName, opts, out)
		}
	} else if len(irPasses) > 0 {
		optMod := ir.Clone(front)
		irMgr := &irpass.Manager{Passes: irPasses}
		irMgr.Run(optMod)
		for _, s := range irMgr.Stats {
			out.ran(PassStat{Name: s.Pass, Tier: "ir", Applied: s.Applied, Duration: s.Duration})
		}
		prog, err := codegen.Compile(optMod, fnName, codegen.Options{MCPU: opts.MCPU, Hook: opts.Hook})
		out.lowerings++
		if err != nil {
			return nil, fmt.Errorf("core: llc: %w", err)
		}
		out.prog = prog
	}

	// run is one bytecode-tier pass, guarded or plain; what names the stage
	// in a plain build's error.
	bopts := bopt.Options{ALU32: opts.KernelALU32}
	run := func(p bopt.Pass, what string) error {
		if opts.Guard {
			runGuardedBytecodePass(p, bopts, opts, out)
			return nil
		}
		start := time.Now()
		next, applied, err := p.Run(out.prog, bopts)
		if err != nil {
			return fmt.Errorf("core: %s: %w", what, err)
		}
		out.prog = next
		out.ran(PassStat{Name: p.Name, Tier: "bytecode", Applied: applied, Duration: time.Since(start)})
		return nil
	}

	var bcPasses []bopt.Pass
	for _, p := range bopt.Pipeline() {
		if enabled(Optimizer(p.Name)) {
			bcPasses = append(bcPasses, p)
		}
	}
	// Dep analysis is charged whenever any bytecode pass runs.
	if len(bcPasses) > 0 {
		depStart := time.Now()
		cfg, err := analysis.BuildCFG(out.prog)
		if err != nil {
			if !opts.Guard {
				return nil, fmt.Errorf("core: bytecode refinement: %w", err)
			}
			out.failures = append(out.failures, guard.PassFailure{
				Pass: "Dep", Tier: "bytecode", Kind: guard.FailError, Detail: err.Error(),
			})
			return out, nil
		}
		analysis.Liveness(cfg)
		analysis.Constants(cfg)
		out.ran(PassStat{Name: "Dep", Tier: "bytecode", Duration: time.Since(depStart)})

		for _, p := range bcPasses {
			if err := run(p, "bytecode refinement"); err != nil {
				return nil, err
			}
		}
	}

	// Superoptimizer tier: runs after the rule-based refinement as the "SO"
	// pass, guarded exactly like any bytecode pass when guarding is on.
	if opts.Superopt != nil {
		socfg := *opts.Superopt
		socfg.ALU32 = socfg.ALU32 || opts.KernelALU32
		out.superopt = &superopt.Stats{}
		err := run(bopt.Pass{Name: "SO", Run: func(p *ebpf.Program, _ bopt.Options) (*ebpf.Program, int, error) {
			np, st, err := superopt.Optimize(p, socfg)
			*out.superopt = st
			return np, st.Rewrites, err
		}}, "superopt")
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runGuardedIRPass applies one IR-tier pass to a private clone of cur under
// the guard, validates the result (well-formedness, lowering, differential
// execution of the lowering against the accepted program) and returns the
// new module — or cur unchanged, recording the failure, when any containment
// path fires.
func runGuardedIRPass(cur *ir.Module, p irpass.Pass, fnName string, opts Options, out *pipeOut) *ir.Module {
	work := ir.Clone(cur)
	applied := 0
	start := time.Now()
	fail := guard.Exec(p.Name, "ir", opts.PassTimeout, func() error {
		opts.Injector.Before(p.Name, opts.PassTimeout)
		for _, f := range work.Funcs {
			applied += p.Run(f)
		}
		opts.Injector.MutateIR(p.Name, work)
		return nil
	})
	dur := time.Since(start)

	failed := func(kind guard.FailureKind, detail string) {
		fail = &guard.PassFailure{Pass: p.Name, Tier: "ir", Kind: kind, Detail: detail}
	}
	if fail == nil {
		if err := ir.Validate(work); err != nil {
			failed(guard.FailInvariant, err.Error())
		}
	}
	if fail == nil {
		// Validated lowering: an output module that no longer compiles is a
		// pass fault, not a build failure.
		compiled, err := codegen.Compile(work, fnName, codegen.Options{MCPU: opts.MCPU, Hook: opts.Hook})
		out.lowerings++
		if err != nil {
			failed(guard.FailInvariant, fmt.Sprintf("does not lower: %v", err))
		} else if derr := out.admit(compiled); derr != nil {
			failed(guard.FailDiff, derr.Error())
		}
	}
	if fail != nil {
		// applied is not read here: a timed-out pass may still be writing it.
		out.failures = append(out.failures, *fail)
		return cur
	}
	out.ran(PassStat{Name: p.Name, Tier: "ir", Applied: applied, Duration: dur})
	return work
}

// runGuardedBytecodePass applies one bytecode-tier pass to a private clone of
// the accepted program under the guard, validates the result and admits it —
// or leaves the accepted program unchanged, recording the failure, when any
// containment path fires.
func runGuardedBytecodePass(p bopt.Pass, bopts bopt.Options, opts Options, out *pipeOut) {
	work := out.prog.Clone()
	var next *ebpf.Program
	applied := 0
	start := time.Now()
	fail := guard.Exec(p.Name, "bytecode", opts.PassTimeout, func() error {
		opts.Injector.Before(p.Name, opts.PassTimeout)
		n, a, err := p.Run(work, bopts)
		if err != nil {
			return err
		}
		next = opts.Injector.MutateBytecode(p.Name, n)
		applied = a
		return nil
	})
	dur := time.Since(start)

	if fail == nil {
		if err := guard.ValidateProgram(next); err != nil {
			fail = &guard.PassFailure{Pass: p.Name, Tier: "bytecode", Kind: guard.FailInvariant, Detail: err.Error()}
		} else if derr := out.admit(next); derr != nil {
			fail = &guard.PassFailure{Pass: p.Name, Tier: "bytecode", Kind: guard.FailDiff, Detail: derr.Error()}
		}
	}
	if fail != nil {
		out.failures = append(out.failures, *fail)
		return
	}
	out.ran(PassStat{Name: p.Name, Tier: "bytecode", Applied: applied, Duration: dur})
}

// bisectCulprits delta-debugs a final verifier rejection over the enabled
// optimizer set: starting from the empty set it re-adds optimizers in
// pipeline order, keeping each only while the rebuilt program still
// verifies. The rejected additions are the minimal culprit set under this
// greedy order; the surviving subset yields the best program that verifies.
// With nothing survivable, Prog falls back to the (already compiled)
// baseline. res is updated in place.
func bisectCulprits(front *ir.Module, fnName string, opts Options, vopts verifier.Options, res *Result) {
	// Bisection isolates the six paper optimizers; the superopt tier is
	// switched off for the trials (and for the chosen fallback output) so it
	// can neither mask nor be blamed for a rule-based culprit.
	opts.Superopt = nil
	res.Superopt = nil
	var enabledList []Optimizer
	for _, o := range AllOptimizers() {
		if opts.enabled(o) {
			enabledList = append(enabledList, o)
		}
	}

	kept := []Optimizer{}
	var best *pipeOut
	var bestStats verifier.Stats
	inSet := func(set []Optimizer) func(Optimizer) bool {
		return func(o Optimizer) bool { return slices.Contains(set, o) }
	}
	for _, o := range enabledList {
		trial := append(append([]Optimizer{}, kept...), o)
		po, err := runPipeline(front, res.Baseline, fnName, opts, inSet(trial))
		if err != nil {
			res.Culprits = append(res.Culprits, o)
			continue
		}
		st := verifier.Verify(po.prog, vopts)
		if st.Passed {
			kept = trial
			best = po
			bestStats = st
		} else {
			res.Culprits = append(res.Culprits, o)
		}
	}

	if best == nil {
		// Even the empty pipeline output was never built verifying; the
		// baseline is the last resort (returned even if itself rejected —
		// the rejection is recorded in BaselineVerification).
		res.Prog = res.Baseline.Clone()
		res.Stats = nil
		res.MerlinTime = 0
		res.Verification = res.BaselineVerification
		res.FellBack = "baseline"
		return
	}
	res.Prog = best.prog
	res.Stats = best.stats
	res.MerlinTime = best.merlin
	res.PassFailures = append(res.PassFailures, best.failures...)
	res.Verification = bestStats
	res.FellBack = "bisect"
}
