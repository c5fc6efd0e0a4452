package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/objfile"
	"merlin/internal/superopt"
	"merlin/internal/verifier"
)

// updateGolden rewrites testdata/corpus_parity.golden from the tree under
// test. The committed table was generated at the commit *before* the build
// path was restructured (lower-once, observe-once), so a passing run proves
// the restructured pipeline emits the bytes the old one did.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const parityGolden = "testdata/corpus_parity.golden"

func progDigest(t *testing.T, p *ebpf.Program) string {
	t.Helper()
	b, err := objfile.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

// parityLine is everything about one build that must not move: both
// programs' bytes, what each pass reported, the verifier's instruction count
// and every degradation record.
func parityLine(t *testing.T, spec *corpus.ProgramSpec, res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s base=%s opt=%s applied=", spec.Suite, spec.Name,
		progDigest(t, res.Baseline), progDigest(t, res.Prog))
	for i, s := range res.Stats {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%d", s.Name, s.Applied)
	}
	fmt.Fprintf(&sb, " npi=%d/%d fellback=%q failures=%d", res.BaselineVerification.NPI,
		res.Verification.NPI, res.FellBack, len(res.PassFailures))
	for _, f := range res.PassFailures {
		fmt.Fprintf(&sb, " [%s]", f)
	}
	return sb.String()
}

// TestCorpusParity builds every corpus program with the deployment options
// and one shared in-memory verdict cache, and compares each build against the
// table generated at the parent commit.
func TestCorpusParity(t *testing.T) {
	suites := [][]*corpus.ProgramSpec{corpus.XDP(), corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()}
	cache := superopt.NewMemCache()
	var got []string
	for _, suite := range suites {
		for _, spec := range suite {
			res, err := Build(spec.Mod, spec.Func, Options{
				Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true,
				Guard: true, Verify: true, GuardDiffInputs: 4, PassTimeout: 30 * time.Second,
				Superopt: &superopt.Config{Cache: cache},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Suite, spec.Name, err)
			}
			got = append(got, parityLine(t, spec, res))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("built %d programs, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("program %d moved:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestProducerVersionsPinned is the guard against a forgotten version bump:
// the caches drop what another producer version wrote, which only helps if
// the version moves when the output does. The pin below records which
// versions the committed golden table was generated under; a golden that
// changed while both constants stayed fails here.
func TestProducerVersionsPinned(t *testing.T) {
	const (
		pinnedCore     = "core/1"
		pinnedSuperopt = "superopt/1"
		pinnedGolden   = "2bc6ee16a38f7d0ed16cc25f6979b484d800d559a6afb4cb6d367b8707973bb7"
	)
	raw, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := fmt.Sprintf("%x", sha256.Sum256(raw))
	bumped := PipelineVersion != pinnedCore || superopt.Producer != pinnedSuperopt
	switch {
	case golden != pinnedGolden && !bumped:
		t.Fatalf("%s changed (sha256 %s) under %s and %s: bump the producer version of whichever moved it "+
			"(core.PipelineVersion, superopt.Producer), then re-pin all three values here", parityGolden, golden, pinnedCore, pinnedSuperopt)
	case golden != pinnedGolden || bumped:
		t.Fatalf("re-pin: the tree is at %s, %s with golden sha256 %s", PipelineVersion, superopt.Producer, golden)
	}
}

// TestVerifierLogParity pins the verifier's kernel-style log (LogLevel 1) on
// one XDP and one tracepoint program to the text the parent commit produced,
// and requires that switching the log off changes nothing else in Stats: the
// per-instruction line is only formatted when someone reads it.
func TestVerifierLogParity(t *testing.T) {
	pick := func(set []*corpus.ProgramSpec, name string) *corpus.ProgramSpec {
		for _, s := range set {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no corpus program %q", name)
		return nil
	}
	for _, spec := range []*corpus.ProgramSpec{
		pick(corpus.XDP(), "xdp2"),
		pick(corpus.Sysdig(), "sysdig_read_000"),
	} {
		res, err := Build(spec.Mod, spec.Func, Options{Hook: spec.Hook, MCPU: spec.MCPU, KernelALU32: true})
		if err != nil {
			t.Fatal(err)
		}
		logged := verifier.Verify(res.Prog, verifier.Options{LogLevel: 1})
		quiet := verifier.Verify(res.Prog, verifier.Options{})
		if quiet.Log != "" {
			t.Errorf("%s: LogLevel 0 produced a log", spec.Name)
		}
		noLog := logged
		noLog.Log = ""
		noLog.Duration, quiet.Duration = 0, 0
		if noLog != quiet {
			t.Errorf("%s: stats depend on the log level:\n on  %+v\n off %+v", spec.Name, noLog, quiet)
		}
		golden := filepath.Join("testdata", "verifier_log_"+spec.Name+".golden")
		if *updateGolden {
			if err := os.WriteFile(golden, []byte(logged.Log), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if logged.Log != string(want) {
			t.Errorf("%s: verifier log moved:\n got:\n%s\nwant:\n%s", spec.Name, logged.Log, want)
		}
	}
}
