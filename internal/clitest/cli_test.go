// Package clitest exercises the command-line tools end to end: it builds
// the real binaries and drives the merlinc → merlin-objdump → merlin-verify
// workflow on a sample program, asserting on their stdout.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleIR = `module "cli"
map @hits : array key=4 value=8 max=4

func count(%ctx: ptr) -> i64 {
entry:
  %key = alloca 4, align 4
  %vslot = alloca 8, align 8
  store i32 %key, 0, align 4
  %data = load ptr, %ctx, align 8
  %endp = gep %ctx, 8
  %end = load ptr, %endp, align 8
  %lim = bin add i64 %data, 14
  %short = icmp ugt i64 %lim, %end
  condbr %short, drop, count
drop:
  ret 1
count:
  %mp = mapptr @hits
  %v = call 1, %mp, %key
  store i64 %vslot, %v, align 8
  %null = icmp eq i64 %v, 0
  condbr %null, drop, bump
bump:
  %vp = load ptr, %vslot, align 8
  %old = load i64, %vp, align 8
  %new = bin add i64 %old, 1
  store i64 %vp, %new, align 8
  ret 2
}
`

// soChainIR is an ALU chain the superoptimizer can shorten: a cold build
// searches its windows and finds at least one rewrite.
const soChainIR = `module "sochain"

func fold(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %endp = gep %ctx, 8
  %end = load ptr, %endp, align 8
  %lim = bin add i64 %data, 14
  %short = icmp ugt i64 %lim, %end
  condbr %short, drop, work
drop:
  ret 1
work:
  %p = load ptr, %ctx, align 8
  %v = load i64, %p, align 8
  %a = bin add i64 %v, 5
  %b = bin add i64 %a, 3
  %c = bin add i64 %b, 7
  %d = bin mul i64 %c, 1
  %e = bin xor i64 %d, 0
  %f = bin add i64 %e, 0
  ret %f
}
`

// writeFile writes content to name under a fresh temp dir and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// field returns the integer value of key=N in line, failing the test when
// line has no such field.
func field(t *testing.T, line, key string) int {
	t.Helper()
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s in %q: %v", key, line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s= in %q", key, line)
	return 0
}

// buildTools compiles the three binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"merlinc", "merlin-objdump", "merlin-verify"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "merlin/cmd/"+tool)
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCompileObjdumpVerifyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "count.mir")
	if err := os.WriteFile(src, []byte(sampleIR), 0o644); err != nil {
		t.Fatal(err)
	}
	obj := filepath.Join(dir, "count.json")
	base := filepath.Join(dir, "base.json")

	out := run(t, filepath.Join(bins, "merlinc"), "-o", obj, "-baseline", base, "-S", src)
	for _, want := range []string{"DAO", "CP&DCE", "NI:", "reduction", "verifier:"} {
		if !strings.Contains(out, want) {
			t.Errorf("merlinc output missing %q:\n%s", want, out)
		}
	}

	dump := run(t, filepath.Join(bins, "merlin-objdump"), obj)
	for _, want := range []string{"program count", "hook=xdp", "map 0: hits", "exit"} {
		if !strings.Contains(dump, want) {
			t.Errorf("objdump output missing %q:\n%s", want, dump)
		}
	}

	for _, kernel := range []string{"5.19", "6.5"} {
		v := run(t, filepath.Join(bins, "merlin-verify"), "-kernel", kernel, obj)
		if !strings.Contains(v, "verdict: ACCEPTED") {
			t.Errorf("kernel %s rejected:\n%s", kernel, v)
		}
		if !strings.Contains(v, "insn_processed:") {
			t.Errorf("missing NPI in output:\n%s", v)
		}
	}

	// The optimized program must be smaller than the baseline object.
	baseDump := run(t, filepath.Join(bins, "merlin-objdump"), base)
	baseNI := extractNI(t, baseDump)
	optNI := extractNI(t, dump)
	if optNI >= baseNI {
		t.Errorf("optimized NI %d not smaller than baseline %d", optNI, baseNI)
	}
}

func extractNI(t *testing.T, dump string) int {
	t.Helper()
	i := strings.Index(dump, "NI=")
	if i < 0 {
		t.Fatalf("no NI in dump:\n%s", dump)
	}
	n := 0
	for _, c := range dump[i+3:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestMerlincDisableFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "count.mir")
	if err := os.WriteFile(src, []byte(sampleIR), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, filepath.Join(bins, "merlinc"),
		"-disable", "DAO,MoF,CP&DCE,SLM,CC,PO", src)
	if !strings.Contains(out, "0.0% reduction") {
		t.Errorf("fully disabled pipeline should not reduce:\n%s", out)
	}
}

func TestMerlincRejectsBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "bad.mir")
	if err := os.WriteFile(src, []byte("not ir at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bins, "merlinc"), src)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bad input accepted:\n%s", out)
	}
}

// TestMerlincSuperoptCache: a cold merlinc -superopt build against an
// empty verdict cache searches and rewrites; the same build against the
// filled cache answers every window from it and searches nothing.
func TestMerlincSuperoptCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	merlinc := filepath.Join(buildTools(t), "merlinc")
	src := writeFile(t, "sochain.mir", soChainIR)
	cache := filepath.Join(t.TempDir(), "cache")
	superoptLine := func() string {
		t.Helper()
		out := run(t, merlinc, "-superopt", "-superopt-cache", cache, src)
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "superopt: ") {
				return l
			}
		}
		t.Fatalf("no superopt line:\n%s", out)
		return ""
	}
	if cold := superoptLine(); field(t, cold, "hits") != 0 || field(t, cold, "rewrites") < 1 {
		t.Errorf("cold build: %s, want hits=0 and rewrites >= 1", cold)
	}
	if warm := superoptLine(); field(t, warm, "hits") < 1 || field(t, warm, "searches") != 0 {
		t.Errorf("warm build: %s, want hits >= 1 and searches=0", warm)
	}
}
