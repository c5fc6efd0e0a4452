package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/objfile"
	"merlin/internal/superopt"
	"merlin/internal/vm"
)

// The program sets and their order are fixed, not drawn from the seed:
// program sizes span three orders of magnitude and programs share superopt
// verdicts, so a seeded draw or order would move every figure by more than
// its bound from one seed to the next. The seed picks the inputs of the
// reference check, the packet traces and the workers' traffic stream.

// suiteSample is how many programs the build set takes from the head of each
// generated security suite (sizes 24 … 10663 instructions).
const suiteSample = 6

// fleetPrograms are the four XDP programs the daemon workloads deploy: the
// paper's Table 3 set, from 66 to 1215 optimized instructions.
var fleetPrograms = []string{"xdp2", "xdp_router_ipv4", "xdp_fwd", "xdp-balancer"}

// buildSet is every XDP program plus the head of each security suite.
func buildSet() []*corpus.ProgramSpec {
	set := corpus.XDP()
	for _, suite := range [][]*corpus.ProgramSpec{corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		set = append(set, suite[:suiteSample]...)
	}
	return set
}

func xdpByName(names []string) ([]*corpus.ProgramSpec, error) {
	var out []*corpus.ProgramSpec
	all := corpus.XDP()
	for _, n := range names {
		found := false
		for _, s := range all {
			if s.Name == n {
				out, found = append(out, s), true
			}
		}
		if !found {
			return nil, fmt.Errorf("no XDP corpus program %q", n)
		}
	}
	return out, nil
}

// passTimeout replaces the 2 s default so that a loaded machine cannot roll a
// pass back and change the bytecode the exact metrics are computed from.
const passTimeout = 30 * time.Second

// deployOpts are the options a deployment build runs with: every pass
// guarded and differentially validated, the result verified, and the
// superoptimizer tier on at its default budget when so is set.
func deployOpts(spec *corpus.ProgramSpec, so *superopt.Cache) core.Options {
	o := core.Options{
		Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
		Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: passTimeout,
	}
	if so != nil {
		o.Superopt = &superopt.Config{Cache: so}
	}
	return o
}

// workerOpts are the options a merlind worker started with default flags
// builds a corpus deploy with (cmd/merlind: no -superopt, -guard-diff-inputs
// 4, -pass-timeout 2s, BuildForDeploy forcing Guard and Verify).
func workerOpts(spec *corpus.ProgramSpec) core.Options {
	o := deployOpts(spec, nil)
	o.PassTimeout = guard.DefaultTimeout
	return o
}

// built is one program as the tree under test compiled it, with the
// clang-only baseline the reference check runs.
type built struct {
	spec *corpus.ProgramSpec
	opt  *ebpf.Program
	base *ebpf.Program
}

func digest(p *ebpf.Program) (string, error) {
	b, err := objfile.Marshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// setDigest folds the programs' digests, in set order, into one.
func setDigest(progs []*ebpf.Program) (string, error) {
	h := sha256.New()
	for _, p := range progs {
		d, err := digest(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkInputs is how many seeded inputs the reference check runs per
// program; cycleInputs how many fixed ones the cycle model is summed over.
const (
	checkInputs = 64
	cycleInputs = 64
	cycleSeed   = 1
)

// checkAgainstReference runs the optimized program on the fast engine and the
// baseline on the independent switch interpreter over n inputs drawn from
// seed, and reports the first difference in return value, fault behaviour or
// final map contents. It returns both programs' summed modelled cycles.
func checkAgainstReference(b built, n int, seed int64) (optCycles, baseCycles uint64, err error) {
	cfg := vm.Config{Seed: uint64(seed)}
	opt, err := vm.New(b.opt, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: load optimized: %w", b.spec.Name, err)
	}
	ref, err := vm.NewRef(b.base, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: load baseline: %w", b.spec.Name, err)
	}
	if opt.Engine() != "fast" || ref.Engine() != "ref" {
		return 0, 0, fmt.Errorf("%s: engines %s/%s, want fast/ref", b.spec.Name, opt.Engine(), ref.Engine())
	}
	for i, in := range guard.Inputs(b.spec.Hook, n, seed) {
		// Programs rewrite their input in place: each side gets its own copy.
		rvO, stO, errO := opt.Run(clone(in.Ctx), clone(in.Pkt))
		rvR, stR, errR := ref.Run(clone(in.Ctx), clone(in.Pkt))
		if (errO == nil) != (errR == nil) {
			return 0, 0, fmt.Errorf("%s: input %d: fault differs: optimized %v, reference %v", b.spec.Name, i, errO, errR)
		}
		if rvO != rvR {
			return 0, 0, fmt.Errorf("%s: input %d: returned %d, reference %d", b.spec.Name, i, rvO, rvR)
		}
		optCycles += stO.Cycles
		baseCycles += stR.Cycles
	}
	if opt.NumMaps() != ref.NumMaps() {
		return 0, 0, fmt.Errorf("%s: %d maps, reference %d", b.spec.Name, opt.NumMaps(), ref.NumMaps())
	}
	for i := 0; i < opt.NumMaps(); i++ {
		if !bytes.Equal(opt.Map(i).Backing(), ref.Map(i).Backing()) {
			return 0, 0, fmt.Errorf("%s: map %d differs from reference", b.spec.Name, i)
		}
	}
	return optCycles, baseCycles, nil
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// quality is the compactness and modelled-cycle outcome of a program set,
// with the reference check's tally.
type quality struct {
	niBase, niOpt       int
	cycBase, cycOpt     uint64
	checked, mismatches int
	firstMismatch       error
}

// assess checks every program against the reference on the seed's inputs and
// sums instruction counts and modelled cycles (the latter on fixed inputs, so
// they repeat exactly whatever the seed).
func assess(set []built, seed int64) quality {
	var q quality
	for _, b := range set {
		q.niBase += b.base.NI()
		q.niOpt += b.opt.NI()
		q.checked++
		_, _, err := checkAgainstReference(b, checkInputs, seed)
		if err == nil {
			var o, r uint64
			if o, r, err = checkAgainstReference(b, cycleInputs, cycleSeed); err == nil {
				q.cycOpt += o
				q.cycBase += r
			}
		}
		if err != nil {
			q.mismatches++
			if q.firstMismatch == nil {
				q.firstMismatch = err
			}
		}
	}
	return q
}

func (q quality) niReductionPct() float64 {
	return 100 * float64(q.niBase-q.niOpt) / float64(q.niBase)
}

func (q quality) cyclesReductionPct() float64 {
	return 100 * (float64(q.cycBase) - float64(q.cycOpt)) / float64(q.cycBase)
}
