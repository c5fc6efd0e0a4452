package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"merlin/internal/analysis"
	"merlin/internal/bopt"
	"merlin/internal/buildsvc"
	"merlin/internal/codegen"
	"merlin/internal/core"
	"merlin/internal/corpus"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/ir"
	"merlin/internal/irpass"
	"merlin/internal/journal"
	"merlin/internal/superopt"
	"merlin/internal/verifier"
)

// buildRunner is build-cold and build-warm: the same requests through
// buildsvc.Submit, against empty disk caches every pass (cold) or against
// caches filled once in set-up (warm).
type buildRunner struct {
	warm    bool
	e       *env
	seed    int64
	specs   []*corpus.ProgramSpec // in submission order
	sources [][]byte              // ir.Print of each spec
	dir     string                // warm: the filled caches
	fill    []built               // warm: what the fill pass built
}

func (b *buildRunner) setup(e *env, seed int64) error {
	b.e, b.seed = e, seed
	b.specs = buildSet()
	for _, s := range b.specs {
		b.sources = append(b.sources, []byte(ir.Print(s.Mod)))
	}
	if !b.warm {
		return nil
	}
	var err error
	if b.dir, err = e.tempDir("warm"); err != nil {
		return err
	}
	out, err := b.pass(b.dir, nil, nil, nil)
	if err != nil {
		return err
	}
	b.fill, err = out.built(b.specs)
	return err
}

func (b *buildRunner) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// passOut is one pass over the program set.
type passOut struct {
	results          []*buildsvc.BuildResult // nil where Submit failed
	errs             int
	firstErr         error
	parse, coreBuild time.Duration // inside the service's build function
}

func (p *passOut) built(specs []*corpus.ProgramSpec) ([]built, error) {
	if p.errs > 0 {
		return nil, fmt.Errorf("%d submits failed: %w", p.errs, p.firstErr)
	}
	out := make([]built, len(specs))
	for i, br := range p.results {
		if br.Result == nil {
			return nil, fmt.Errorf("%s: outcome %s carries no baseline", specs[i].Name, br.Outcome)
		}
		out[i] = built{spec: specs[i], opt: br.Prog, base: br.Result.Baseline}
	}
	return out, nil
}

// pass opens the verdict cache and the artifact cache in dir, submits every
// program (Workers=1, one Submit in flight), on the warm path exports the
// verdict cache and merges it into a fresh in-memory one as a federation
// round does, and closes both. Latency samples and units go to w and spans
// to tr when set.
func (b *buildRunner) pass(dir string, w *window, tr *tracer, lay *layerTimes) (*passOut, error) {
	out := &passOut{results: make([]*buildsvc.BuildResult, len(b.specs))}
	tr.request()
	endPass := tr.begin("bench.pass")
	defer endPass()

	var so *superopt.Cache
	var ac *buildsvc.ArtifactCache
	var err error
	lay.time(tr, "superopt.cache_open", func() { so, err = superopt.OpenCache(filepath.Join(dir, "so")) })
	if err != nil {
		return nil, err
	}
	lay.time(tr, "buildsvc.cache_open", func() { ac, err = buildsvc.OpenArtifactCache(filepath.Join(dir, "art")) })
	if err != nil {
		so.Close()
		return nil, err
	}
	svc := buildsvc.New(buildsvc.Config{Workers: 1, Cache: ac, Build: func(req buildsvc.Request) (*core.Result, error) {
		// buildsvc.DefaultBuild, with its two halves timed. The worker runs
		// this while the one submitter blocks, so the tracer stays
		// single-threaded.
		t0 := time.Now()
		end := tr.begin("ir.parse")
		mod, err := ir.Parse(string(req.Source))
		end()
		out.parse += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("buildsvc: parse: %w", err)
		}
		t0 = time.Now()
		end = tr.begin("core.build")
		res, err := core.Build(mod, req.Func, req.Opts)
		end()
		out.coreBuild += time.Since(t0)
		return res, err
	}})

	warmRound := b.warm && b.fill != nil
	want := buildsvc.OutcomeBuilt
	if warmRound {
		want = buildsvc.OutcomeCached
	}
	for i, spec := range b.specs {
		req := buildsvc.Request{Source: b.sources[i], Func: spec.Func, Opts: deployOpts(spec, so)}
		t0 := time.Now()
		end := tr.begin("buildsvc.submit")
		br, err := svc.Submit(req)
		end()
		if w != nil {
			w.lat = append(w.lat, us(time.Since(t0)))
			w.units++
		}
		if err == nil && br.Outcome != want {
			err = fmt.Errorf("%s: outcome %s, want %s", spec.Name, br.Outcome, want)
		}
		if err != nil {
			out.errs++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		out.results[i] = br
	}
	if warmRound {
		var blob []byte
		lay.time(tr, "superopt.cache_export", func() { blob, _, _, err = so.Export(0) })
		if err == nil {
			lay.time(tr, "superopt.cache_merge", func() { _, err = superopt.NewMemCache().Merge(blob) })
		}
	}
	// Closing flushes both journals; a pass whose caches did not persist failed.
	if cerr := svc.Close(); err == nil { // also closes ac
		err = cerr
	}
	if cerr := so.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// coldPass runs one pass in a fresh directory and removes it afterwards.
func (b *buildRunner) coldPass(w *window, tr *tracer, lay *layerTimes) (*passOut, error) {
	dir, err := b.e.tempDir("cold")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	out, err := b.pass(dir, w, tr, lay)
	if w != nil {
		w.elapsed = time.Since(t0)
	}
	return out, err
}

// fingerprint is everything about a pass that must repeat exactly: the
// bytecode digest and the exact counts.
func fingerprint(out *passOut) (string, error) {
	var progs []*ebpf.Program
	var ni, niBase, searches, rewrites, npi int
	for _, br := range out.results {
		if br == nil {
			return "", fmt.Errorf("pass has failed submits: %w", out.firstErr)
		}
		progs = append(progs, br.Prog)
		ni += br.Stats.Insns
		niBase += br.Stats.BaselineInsns
		searches += br.Stats.Searches
		rewrites += br.Stats.Rewrites
		if br.Result != nil {
			npi += br.Result.Verification.NPI
		}
	}
	d, err := setDigest(progs)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("bytecode=%s ni=%d/%d searches=%d rewrites=%d npi=%d", d, ni, niBase, searches, rewrites, npi), nil
}

const minColdPasses = 3

func (b *buildRunner) measure(d time.Duration, r *result) error {
	var ws []window
	var last *passOut
	var roundMeans [timedWindows][]float64 // warm: per window, each round's mean Submit latency
	if b.warm {
		// Warm-up rounds, then time-cut windows of whole rounds.
		for i := 0; i < 20; i++ {
			if _, err := b.pass(b.dir, nil, nil, nil); err != nil {
				return err
			}
		}
		var err error
		ws, err = runWindows(d, timedWindows, func(i int, w *window) error {
			n := len(w.lat)
			out, err := b.pass(b.dir, w, nil, nil)
			if err != nil {
				return err
			}
			roundMeans[i] = append(roundMeans[i], mean(w.lat[n:]))
			r.attempted += len(b.specs)
			r.fail(out.errs, "%v", out.firstErr)
			last = out
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		// One window per pass; every pass starts from empty caches, so the
		// passes double as the determinism check.
		if _, err := b.coldPass(nil, nil, nil); err != nil {
			return err
		}
		var prints []string
		start := time.Now()
		for len(ws) < minColdPasses || time.Since(start) < d {
			var w window
			out, err := b.coldPass(&w, nil, nil)
			if err != nil {
				return err
			}
			r.attempted += len(b.specs)
			r.fail(out.errs, "%v", out.firstErr)
			ws, last = append(ws, w), out
			if out.errs == 0 {
				fp, err := fingerprint(out)
				if err != nil {
					return err
				}
				prints = append(prints, fp)
			}
		}
		for _, fp := range prints[1:] {
			if fp != prints[0] {
				r.fail(1, "builds are not deterministic: %q then %q", prints[0], fp)
			}
		}
		if len(prints) > 0 {
			r.note("determinism: %d passes from empty caches agree: %s", len(prints), prints[0])
		}
	}
	s := summarize(ws)
	if b.warm {
		// A single cache hit takes about 4 µs, right after milliseconds of
		// journal I/O: the median over such samples moved by a fifth between
		// runs of the same code on a shared host. The median is therefore
		// taken over rounds, of the round's mean Submit latency, which the
		// hashing of the large programs' sources dominates; the p99 stays
		// that of the single Submits.
		var p50s []float64
		for _, m := range roundMeans {
			p50s = append(p50s, median(m))
		}
		s.p50 = median(p50s)
	}
	r.setSummary(s)
	r.note("build_pass_s (whole set of %d programs) = %.4f", len(b.specs), float64(len(b.specs))/s.perSec)

	set := b.fill
	if !b.warm {
		var err error
		if set, err = last.built(b.specs); err != nil {
			return err
		}
	} else if last.errs == 0 {
		// Check what the cache served, not what the fill pass returned.
		set = append([]built(nil), b.fill...)
		for i, br := range last.results {
			set[i].opt = br.Prog
		}
	}
	r.setQuality(assess(set, b.seed))
	return nil
}

// layerTimes accumulates the time spent under each stage name during one
// round; a nil *layerTimes only runs the function.
type layerTimes struct {
	dur map[string]time.Duration
}

func newLayerTimes() *layerTimes { return &layerTimes{dur: map[string]time.Duration{}} }

func (l *layerTimes) time(tr *tracer, name string, fn func()) {
	d := tr.timed(name, fn)
	if l != nil {
		l.dur[name] += d
	}
}

// replayCounts are the exact counts the staged replay observes.
type replayCounts struct {
	applied                           map[string]int
	niBaseline, niBopt                int
	windows, searches, hits, rewrites int
	npiBase, npiOpt, peakStates       int
	rollbacks                         int
}

// guardDiffSeed mirrors core's constant of the same name.
const guardDiffSeed = 1

// replay runs one program through core's guarded pipeline stage by stage,
// calling the same public functions core.Build calls in the same order, with
// every call timed under its layer's name. The caller checks that the
// bytecode equals core.Build's.
func replay(tr *tracer, lay *layerTimes, src []byte, spec *corpus.ProgramSpec, so *superopt.Cache, c *replayCounts) (*ebpf.Program, error) {
	opts := deployOpts(spec, so)
	cg := codegen.Options{MCPU: opts.MCPU, Hook: opts.Hook}
	inputs := guard.Inputs(opts.Hook, opts.GuardDiffInputs, guardDiffSeed)
	var err error

	var mod *ir.Module
	lay.time(tr, "ir.parse", func() { mod, err = ir.Parse(string(src)) })
	if err != nil {
		return nil, err
	}
	front := func() (*ir.Module, error) {
		var m *ir.Module
		lay.time(tr, "ir.clone", func() { m = ir.Clone(mod) })
		lay.time(tr, "irpass.inline", func() { _, err = irpass.Inline(m) })
		if err != nil {
			return nil, err
		}
		lay.time(tr, "irpass.generic", func() { (&irpass.Manager{Passes: irpass.Generic()}).Run(m) })
		return m, nil
	}
	compile := func(m *ir.Module) (p *ebpf.Program, err error) {
		lay.time(tr, "codegen.compile", func() { p, err = codegen.Compile(m, spec.Func, cg) })
		return p, err
	}

	baseMod, err := front()
	if err != nil {
		return nil, err
	}
	baseline, err := compile(baseMod)
	if err != nil {
		return nil, err
	}
	c.niBaseline += baseline.NI()

	optMod, err := front()
	if err != nil {
		return nil, err
	}
	for _, p := range []struct {
		stage string
		pass  irpass.Pass
	}{
		{"irpass.dao", irpass.Pass{Name: string(core.DAO), Run: irpass.DataAlignment}},
		{"irpass.mof", irpass.Pass{Name: string(core.MoF), Run: irpass.MacroOpFusion}},
	} {
		var work *ir.Module
		lay.time(tr, "ir.clone", func() { work = ir.Clone(optMod) })
		applied := 0
		var fail *guard.PassFailure
		lay.time(tr, p.stage, func() {
			fail = guard.Exec(p.pass.Name, "ir", opts.PassTimeout, func() error {
				for _, f := range work.Funcs {
					applied += p.pass.Run(f)
				}
				return nil
			})
		})
		ok := fail == nil
		if ok {
			lay.time(tr, "guard.validate", func() { ok = ir.Validate(work) == nil })
		}
		var compiled, ref *ebpf.Program
		if ok {
			compiled, err = compile(work)
			ok = err == nil
		}
		if ok {
			if ref, err = compile(optMod); err == nil {
				lay.time(tr, "guard.diff", func() { ok = guard.DiffPrograms(ref, compiled, inputs) == nil })
			}
		}
		if !ok {
			c.rollbacks++
			continue
		}
		c.applied[p.stage] += applied
		optMod = work
	}
	prog, err := compile(optMod)
	if err != nil {
		return nil, err
	}

	cur := prog.Clone()
	lay.time(tr, "analysis.dep", func() {
		var cfg *analysis.CFG
		if cfg, err = analysis.BuildCFG(cur); err == nil {
			analysis.Liveness(cfg)
			analysis.Constants(cfg)
		}
	})
	if err != nil {
		return nil, err
	}
	bo := bopt.Options{ALU32: opts.KernelALU32}
	guarded := func(stage string, p bopt.Pass) {
		work := cur.Clone()
		var next *ebpf.Program
		applied := 0
		var fail *guard.PassFailure
		lay.time(tr, stage, func() {
			fail = guard.Exec(p.Name, "bytecode", opts.PassTimeout, func() error {
				n, a, err := p.Run(work, bo)
				next, applied = n, a
				return err
			})
		})
		ok := fail == nil
		if ok {
			lay.time(tr, "guard.validate", func() { ok = guard.ValidateProgram(next) == nil })
		}
		if ok {
			lay.time(tr, "guard.diff", func() { ok = guard.DiffPrograms(cur, next, inputs) == nil })
		}
		if !ok {
			c.rollbacks++
			return
		}
		c.applied[stage] += applied
		cur = next
	}
	stageOf := map[string]string{"CP&DCE": "bopt.cpdce", "SLM": "bopt.slm", "CC": "bopt.cc", "PO": "bopt.po"}
	for _, p := range bopt.Pipeline() {
		guarded(stageOf[p.Name], p)
	}
	c.niBopt += cur.NI()

	socfg := *opts.Superopt
	socfg.ALU32 = socfg.ALU32 || opts.KernelALU32
	preSO := cur
	var st superopt.Stats
	guarded("superopt.search", bopt.Pass{Name: "SO", Run: func(p *ebpf.Program, _ bopt.Options) (*ebpf.Program, int, error) {
		np, s, err := superopt.Optimize(p, socfg)
		st = s
		return np, s.Rewrites, err
	}})
	c.windows += st.Windows
	c.searches += st.Searches
	c.hits += st.CacheHits
	c.rewrites += st.Rewrites
	// The same program again: every window's verdict is now cached.
	lay.time(tr, "superopt.hit", func() { _, _, err = superopt.Optimize(preSO, socfg) })
	if err != nil {
		return nil, err
	}

	lay.time(tr, "verifier.verify", func() {
		vo := verifier.Options{Version: opts.VerifierVersion, Limits: opts.VerifierLimits}
		vb, v := verifier.Verify(baseline, vo), verifier.Verify(cur, vo)
		c.npiBase += vb.NPI
		c.npiOpt += v.NPI
		c.peakStates = max(c.peakStates, v.PeakStates)
		if !v.Passed {
			err = fmt.Errorf("%s: replayed program rejected by the verifier: %w", spec.Name, v.Err)
		}
	})
	return cur, err
}

// buildStages are the replay stages whose per-pass times are reported as
// <stage>_ms and summed into core.unattributed_ms.
var buildStages = []string{
	"ir.clone", "irpass.inline", "irpass.generic", "irpass.dao", "irpass.mof",
	"codegen.compile", "analysis.dep", "bopt.cpdce", "bopt.slm", "bopt.cc", "bopt.po",
	"superopt.search", "verifier.verify", "guard.diff", "guard.validate",
}

func (b *buildRunner) layers(d time.Duration, tr *tracer, r *result) error {
	if b.warm {
		return b.warmLayers(d, tr, r)
	}
	// Each round: one pass through Submit (core.Build and the service's
	// overhead timed around it), then the staged replay of the same set from
	// its own empty verdict cache. The first Submit pass is untraced and is
	// the base of trace.overhead_pct.
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var counts replayCounts
	var lastOut *passOut
	var untraced float64
	var traced []float64
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < d; round++ {
		ptr := tr
		if round == 0 {
			ptr = nil
		}
		var w window
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := b.coldPass(&w, ptr, nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		if out.errs > 0 {
			return fmt.Errorf("%d submits failed: %w", out.errs, out.firstErr)
		}
		r.attempted += len(b.specs)
		lastOut = out
		if round == 0 {
			untraced = ms(w.elapsed)
		} else {
			traced = append(traced, ms(w.elapsed))
		}
		add("ir.parse_ms", ms(out.parse))
		add("core.build_ms", ms(out.coreBuild))
		add("buildsvc.submit_overhead_ms", ms(w.elapsed-out.parse-out.coreBuild))
		add("buildsvc.alloc_mb_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

		lay := newLayerTimes()
		counts = replayCounts{applied: map[string]int{}}
		so := superopt.NewMemCache()
		for i, spec := range b.specs {
			tr.request()
			end := tr.begin("bench.replay")
			prog, err := replay(tr, lay, b.sources[i], spec, so, &counts)
			end()
			if err != nil {
				return err
			}
			r.attempted++
			got, _ := digest(prog)
			want, _ := digest(out.results[i].Prog)
			if got != want {
				r.fail(1, "%s: staged replay's bytecode differs from core.Build's", spec.Name)
			}
		}
		var staged time.Duration
		for _, st := range buildStages {
			add(st+"_ms", ms(lay.dur[st]))
			staged += lay.dur[st]
		}
		add("superopt.hit_ms", ms(lay.dur["superopt.hit"]))
		add("core.unattributed_ms", ms(out.coreBuild-staged))
	}
	for name, vs := range samples {
		r.set(name, median(vs))
	}
	r.set("trace.overhead_pct", 100*(median(traced)-untraced)/untraced)
	r.note("build path: %d rounds of (Submit pass, staged replay); times are per pass of %d programs",
		len(samples["core.build_ms"]), len(b.specs))

	r.set("irpass.dao_applied", float64(counts.applied["irpass.dao"]))
	r.set("irpass.mof_applied", float64(counts.applied["irpass.mof"]))
	for _, p := range []string{"cpdce", "slm", "cc", "po"} {
		r.set("bopt."+p+"_applied", float64(counts.applied["bopt."+p]))
	}
	r.set("codegen.ni_baseline", float64(counts.niBaseline))
	r.set("bopt.ni_out", float64(counts.niBopt))
	r.set("superopt.windows", float64(counts.windows))
	r.set("superopt.searches", float64(counts.searches))
	r.set("superopt.cache_hits", float64(counts.hits))
	r.set("superopt.rewrites", float64(counts.rewrites))
	if counts.searches > 0 {
		r.set("superopt.useful_ratio", float64(counts.rewrites)/float64(counts.searches))
	}
	r.set("verifier.npi_base", float64(counts.npiBase))
	r.set("verifier.npi_opt", float64(counts.npiOpt))
	r.set("verifier.peak_states", float64(counts.peakStates))
	r.set("guard.rollbacks", float64(counts.rollbacks))
	fellback := 0
	for _, br := range lastOut.results {
		if br.Result.FellBack != "" {
			fellback++
		}
	}
	r.set("core.fellback", float64(fellback))
	r.set("buildsvc.built", float64(len(lastOut.results)))
	return b.storeLayers(tr, r, lastOut)
}

// storeLayers times the keyed stores' single operations on the artifacts the
// last pass built: key hashing, artifact put and get on a disk-backed cache,
// a synced journal append and a journal replay.
func (b *buildRunner) storeLayers(tr *tracer, r *result, out *passOut) error {
	dir, err := b.e.tempDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := b.cacheOps(tr, r, filepath.Join(dir, "art"), out.results); err != nil {
		return err
	}

	jl, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	var appends []float64
	for i := 0; i < 64; i++ {
		var err error
		appends = append(appends, us(tr.timed("journal.append_sync", func() { err = jl.Append(payload, true) })))
		if err != nil {
			jl.Close()
			return err
		}
	}
	r.set("journal.append_sync_us", median(appends))
	if err := jl.Close(); err != nil {
		return err
	}
	replayMS, err := journalReplay(tr, filepath.Join(dir, "journal"))
	r.set("journal.replay_ms", replayMS)
	return err
}

// cacheOps times, for every program, key hashing and a Get on the artifact
// cache in dir — after a Put of the program's artifact when put is set.
func (b *buildRunner) cacheOps(tr *tracer, r *result, dir string, put []*buildsvc.BuildResult) error {
	tr.request()
	ac, err := buildsvc.OpenArtifactCache(dir)
	if err != nil {
		return err
	}
	keySO := superopt.NewMemCache() // the key covers the tier's settings, not the handle
	var keys, puts, gets []float64
	for i, spec := range b.specs {
		req := buildsvc.Request{Source: b.sources[i], Func: spec.Func, Opts: deployOpts(spec, keySO)}
		var key string
		keys = append(keys, us(tr.timed("buildsvc.key", func() { key = req.Key() })))
		if put != nil {
			art := buildsvc.Artifact{Prog: put[i].Prog, Stats: put[i].Stats}
			puts = append(puts, us(tr.timed("buildsvc.cache_put", func() { ac.Put(key, art) })))
		}
		var ok bool
		gets = append(gets, us(tr.timed("buildsvc.cache_get", func() { _, ok = ac.Get(key) })))
		if !ok {
			r.fail(1, "%s: not in the artifact cache", spec.Name)
		}
	}
	r.set("buildsvc.key_us", median(keys))
	r.set("buildsvc.cache_get_us", median(gets))
	if put != nil {
		r.set("buildsvc.cache_put_us", median(puts))
	}
	return ac.Close()
}

// journalReplay opens the journal in dir and replays every record.
func journalReplay(tr *tracer, dir string) (float64, error) {
	t0 := time.Now()
	end := tr.begin("journal.replay")
	defer end()
	jl, err := journal.Open(dir)
	if err != nil {
		return 0, err
	}
	defer jl.Close()
	jl.Snapshot()
	err = jl.Replay(func([]byte) error { return nil })
	return ms(time.Since(t0)), err
}

func (b *buildRunner) warmLayers(d time.Duration, tr *tracer, r *result) error {
	// Odd windows are traced, even ones are not: their throughputs give
	// trace.overhead_pct, and the traced rounds' stage times the layer rows.
	samples := map[string][]float64{}
	ws, err := runWindows(d, timedWindows, func(i int, w *window) error {
		lay, ptr := newLayerTimes(), tr
		if i%2 == 0 {
			ptr = nil
		}
		t0 := time.Now()
		out, err := b.pass(b.dir, w, ptr, lay)
		if err != nil {
			return err
		}
		r.attempted += len(b.specs)
		r.fail(out.errs, "%v", out.firstErr)
		if ptr != nil {
			for name, dur := range lay.dur {
				samples[name+"_ms"] = append(samples[name+"_ms"], ms(dur))
			}
			samples["round_ms"] = append(samples["round_ms"], ms(time.Since(t0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, name := range []string{"superopt.cache_open_ms", "buildsvc.cache_open_ms", "superopt.cache_export_ms", "superopt.cache_merge_ms"} {
		r.set(name, median(samples[name]))
	}
	var hits []float64
	for _, w := range ws {
		hits = append(hits, w.lat...)
	}
	r.set("buildsvc.submit_hit_us", median(hits))
	r.set("buildsvc.cached", float64(len(b.specs)))
	setTraceOverhead(r, ws)
	r.note("warm path: %d traced rounds, median round %.3f ms", len(samples["round_ms"]), median(samples["round_ms"]))

	// Single operations of the stores the round is made of.
	if err := b.cacheOps(tr, r, filepath.Join(b.dir, "art"), nil); err != nil {
		return err
	}
	var replays []float64
	for i := 0; i < 20; i++ {
		v, err := journalReplay(tr, filepath.Join(b.dir, "art"))
		if err != nil {
			return err
		}
		replays = append(replays, v)
	}
	r.set("journal.replay_ms", median(replays))
	return nil
}
