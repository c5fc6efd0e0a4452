package fleet

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"merlin/internal/buildsvc"
	"merlin/internal/ebpf"
	"merlin/internal/guard"
	"merlin/internal/lifecycle"
	"merlin/internal/metrics"
	"merlin/internal/superopt"
)

// Worker is the worker side of the line protocol: the one implementation of
// every verb a merlind worker answers. cmd/merlind assembles one from its
// flags and serves it on stdin and the -control listener; the tests host one
// per in-process worker. The two differ only in what they inject: the source
// resolver, and which optional subsystems are nil.
//
// The command reference is cmd/merlind's package comment.
type Worker struct {
	Mgr *lifecycle.Manager
	Reg *metrics.Registry
	// Resolve maps the "<source> [func]" operand of deploy to a buildable
	// source. The same function should back lifecycle.Config.ResolveSource,
	// so a journaled descriptor rebuilds exactly like the deploy that wrote it.
	Resolve func(desc string) (lifecycle.Source, error)
	// DeployOpts is applied to every deploy (SourceDesc is filled per command).
	DeployOpts lifecycle.DeployOptions
	// Seed starts the synthetic traffic stream; each traffic command
	// continues it where the previous one stopped.
	Seed int64
	// Auth challenges the network faces (Listen, and the tests' in-process
	// RPCs).
	Auth Auth

	// Optional subsystems; a nil one makes its verbs answer err.
	Cache        *superopt.Cache                             // cacheexport, cachemerge
	Builds       *buildsvc.Service                           // build
	BuildRequest func(desc string) (buildsvc.Request, error) // resolves build's operand
	HTTP         *metrics.ResilientServer                    // reported by status

	// mu serializes dispatch: every face shares one Worker, and a command's
	// reply lines must not interleave with another's manager mutations.
	mu       sync.Mutex
	traffic  int64              // packets generated so far, advances the input stream
	stream   guard.Stream       // the traffic command's input generator, re-seeded per command
	driver   lifecycle.Driver   // reused input and ServeBatch buffers of the traffic command
	verdicts lifecycle.Verdicts // reused verdict histogram of the traffic command
	reply    []byte             // reused traffic reply line
}

// maxTraffic is the most packets one traffic command serves: the command
// holds the dispatch lock for its whole run, so one control line must not
// hold it for minutes.
const maxTraffic = 1 << 20

// WriteMetrics encodes the worker's registry in Prometheus text format.
// Safe against the command loop, so a scrape never blocks traffic.
func (wk *Worker) WriteMetrics(w io.Writer) error {
	wk.Mgr.CollectMetrics()
	return wk.Reg.WriteText(w)
}

// Dispatch executes one worker command and writes its reply lines to w.
func (wk *Worker) Dispatch(w io.Writer, line string) error {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	args := strings.Fields(line)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "deploy":
		if len(args) < 2 {
			return fmt.Errorf("usage: deploy <slot> <file.mir|corpus:NAME> [func]")
		}
		return wk.deploy(w, args[0], strings.Join(args[1:], " "))
	case "traffic":
		if len(args) != 2 {
			return fmt.Errorf("usage: traffic <slot> <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("traffic count must be a positive integer")
		}
		if n > maxTraffic {
			return fmt.Errorf("traffic count %d exceeds the per-command maximum %d", n, maxTraffic)
		}
		return wk.drive(w, args[0], n)
	case "promote":
		if len(args) < 1 {
			return fmt.Errorf("usage: promote <slot> [force]")
		}
		force := len(args) > 1 && args[1] == "force"
		return wk.transitioned(w, cmd, args[0], wk.Mgr.Promote(args[0], force))
	case "rollback":
		if len(args) != 1 {
			return fmt.Errorf("usage: rollback <slot>")
		}
		return wk.transitioned(w, cmd, args[0], wk.Mgr.Rollback(args[0]))
	case "abort":
		if len(args) != 1 {
			return fmt.Errorf("usage: abort <slot>")
		}
		return wk.transitioned(w, cmd, args[0], wk.Mgr.Abort(args[0]))
	case "drain":
		if len(args) != 1 {
			return fmt.Errorf("usage: drain <slot>")
		}
		fmt.Fprintf(w, "ok drain %s removed=%v\n", args[0], wk.Mgr.Remove(args[0]))
		return nil
	case "status":
		for _, st := range wk.Mgr.Status() {
			fmt.Fprintln(w, st)
		}
		if h := wk.Mgr.JournalHealth(); h.Configured {
			fmt.Fprintln(w, h)
		}
		if wk.HTTP != nil {
			fmt.Fprintln(w, wk.HTTP.Health())
		}
		fmt.Fprintln(w, "ok status")
		return nil
	case "events":
		if len(args) != 1 {
			return fmt.Errorf("usage: events <slot>")
		}
		for _, ev := range wk.Mgr.Events(args[0]) {
			fmt.Fprintln(w, ev)
		}
		fmt.Fprintf(w, "ok events %s\n", args[0])
		return nil
	case "maps":
		if len(args) != 1 {
			return fmt.Errorf("usage: maps <slot>")
		}
		return wk.maps(w, args[0])
	case "metrics":
		if err := wk.WriteMetrics(w); err != nil {
			return err
		}
		fmt.Fprintln(w, "ok metrics")
		return nil
	case "tick":
		wk.Mgr.Tick()
		fmt.Fprintln(w, "ok tick")
		return nil
	case "build":
		if len(args) < 1 {
			return fmt.Errorf("usage: build <file.mir|corpus:NAME> [func]")
		}
		return wk.build(w, strings.Join(args, " "))
	case "cachestats":
		return wk.cacheStats(w)
	case "cacheexport":
		var since uint64
		if len(args) > 0 {
			v, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return fmt.Errorf("since must be a non-negative integer")
			}
			since = v
		}
		return wk.cacheExport(w, since)
	case "cachemerge":
		if len(args) != 1 {
			return fmt.Errorf("usage: cachemerge <base64-blob>")
		}
		return wk.cacheMerge(w, args[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// transitioned answers a promote/rollback/abort with the slot's live
// generation after it.
func (wk *Worker) transitioned(w io.Writer, verb, slot string, err error) error {
	if err != nil {
		return err
	}
	st, _ := wk.Mgr.StatusOf(slot)
	fmt.Fprintf(w, "ok %s %s live=gen%d\n", verb, slot, st.LiveGeneration)
	return nil
}

// deploy stages a candidate built from the resolved source descriptor.
func (wk *Worker) deploy(w io.Writer, slot, desc string) error {
	source, err := wk.Resolve(desc)
	if err != nil {
		return err
	}
	opts := wk.DeployOpts
	opts.SourceDesc = desc
	if err := wk.Mgr.DeployWith(slot, source, opts); err != nil {
		return err
	}
	st, _ := wk.Mgr.StatusOf(slot)
	fmt.Fprintf(w, "ok deploy %s stage=%s live=gen%d", slot, st.Stage, st.LiveGeneration)
	if st.CandidateGeneration > 0 {
		fmt.Fprintf(w, " candidate=gen%d", st.CandidateGeneration)
	}
	fmt.Fprintln(w)
	return nil
}

// drive serves n synthetic XDP packets — guard.Inputs(HookXDP, n,
// Seed+offset), offset the packets earlier commands generated — through the
// slot in ServeBatch chunks, mirroring them into any in-flight candidate, and
// reports the verdict histogram.
func (wk *Worker) drive(w io.Writer, slot string, n int) error {
	wk.stream.Reset(ebpf.HookXDP, wk.Seed+wk.traffic)
	wk.traffic += int64(n)
	wk.verdicts.Reset()
	if err := wk.driver.Drive(wk.Mgr, slot, &wk.stream, n, &wk.verdicts); err != nil {
		return err
	}
	// Traffic mutates map state without lifecycle transitions; flush so the
	// counters survive a crash between commands.
	if err := wk.Mgr.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "merlind: flush after traffic:", err)
	}
	// One line, one Write: "ok traffic <slot> n=<n> verdicts[...] <status>".
	// The slot status the controller's canary gate judges rides at the end,
	// so a canary step costs this one RPC.
	st, _ := wk.Mgr.StatusOf(slot)
	b := append(wk.reply[:0], "ok traffic "...)
	b = append(b, slot...)
	b = append(b, " n="...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " verdicts["...)
	open := len(b)
	for v, name := range verdictNames {
		if c := wk.verdicts.XDP[v]; c > 0 {
			b = appendVerdict(b, open, name, c)
		}
	}
	for v, c := range wk.verdicts.Other {
		b = appendVerdict(b, open, strconv.FormatInt(v, 10), c)
	}
	b = append(b, "] "...)
	b = append(st.AppendText(b), '\n')
	wk.reply = b
	_, err := w.Write(b)
	return err
}

// appendVerdict appends "name=c" to the histogram opened at b[:open].
func appendVerdict(b []byte, open int, name string, c int) []byte {
	if len(b) > open {
		b = append(b, ' ')
	}
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendInt(b, int64(c), 10)
}

var verdictNames = [...]string{
	ebpf.XDPAborted: "aborted", ebpf.XDPDrop: "drop", ebpf.XDPPass: "pass",
	ebpf.XDPTx: "tx", ebpf.XDPRedirect: "redirect",
}

// VerdictName is the name a traffic reply's verdicts[...] histogram gives an
// XDP return value.
func VerdictName(v int64) string {
	if v >= 0 && v < int64(len(verdictNames)) {
		return verdictNames[v]
	}
	return strconv.FormatInt(v, 10)
}

func (wk *Worker) maps(w io.Writer, slot string) error {
	dumps, err := wk.Mgr.LiveMaps(slot)
	if err != nil {
		return err
	}
	for _, md := range dumps {
		line := fmt.Sprintf("map %s bytes=%d", md.Name, len(md.Data))
		if len(md.Data) >= 8 {
			line += fmt.Sprintf(" u64[0]=%d", binary.LittleEndian.Uint64(md.Data))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ok maps %s\n", slot)
	return nil
}

// build runs one submission through the build service and reports the
// outcome plus the producing build's stats — on artifact hits those are the
// stats of the build that filled the entry, served without running a pass.
func (wk *Worker) build(w io.Writer, desc string) error {
	if wk.Builds == nil {
		return errors.New("no build service")
	}
	req, err := wk.BuildRequest(desc)
	if err != nil {
		return err
	}
	res, err := wk.Builds.Submit(req)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(w, "ok build key=%s outcome=%s insns=%d saved=%d searches=%d hits=%d rewrites=%d cycles-saved=%d ms=%d\n",
		buildsvc.ShortKey(res.Key), res.Outcome, st.Insns, st.InsnsSaved,
		st.Searches, st.CacheHits, st.Rewrites, st.CyclesSaved,
		time.Duration(st.BuildNanos).Milliseconds())
	return nil
}

// cacheStats reports the size of both content-addressed caches, and how many
// entries their opens dropped as another producer's.
func (wk *Worker) cacheStats(w io.Writer) error {
	var verdicts, artifacts, pending, stale int
	var seq uint64
	if wk.Cache != nil {
		verdicts, seq, stale = wk.Cache.Len(), wk.Cache.Seq(), wk.Cache.Stale()
	}
	if wk.Builds != nil {
		artifacts, pending = wk.Builds.Cache().Len(), wk.Builds.Pending()
		stale += wk.Builds.Cache().Stale()
	}
	fmt.Fprintf(w, "ok cachestats verdicts=%d seq=%d artifacts=%d pending=%d stale=%d\n",
		verdicts, seq, artifacts, pending, stale)
	return nil
}

var errNoCache = errors.New("no superopt cache (-superopt required)")

// cacheChunkBytes bounds the blob of one cachedata or cachemerge line at half
// of MaxLine: base64 grows it by a third, and the verb and the auth header
// ride in the rest.
const cacheChunkBytes = MaxLine / 2

// cacheExport emits one chunk of the superopt verdicts inserted at sequence
// >= since as a base64 line, then the sequence the chunk reached and the
// cache's own: the controller's fcache sync asks again from seq until it
// reaches end. Only a single entry too large for a protocol line is an err
// reply — the controller could not read the cachedata line.
func (wk *Worker) cacheExport(w io.Writer, since uint64) error {
	if wk.Cache == nil {
		return errNoCache
	}
	blob, seq, n := wk.Cache.ExportChunk(since, cacheChunkBytes)
	line := "cachedata " + base64.StdEncoding.EncodeToString(blob)
	if len(line) >= MaxLine {
		return fmt.Errorf("the entry at %d exceeds the %d-byte line limit", seq-1, MaxLine)
	}
	fmt.Fprintln(w, line)
	fmt.Fprintf(w, "ok cacheexport seq=%d entries=%d end=%d\n", seq, n, wk.Cache.Seq())
	return nil
}

// cacheMerge unions a base64 Export blob into the superopt cache. A verdict
// conflict fails the whole merge and mutates nothing.
func (wk *Worker) cacheMerge(w io.Writer, b64 string) error {
	if wk.Cache == nil {
		return errNoCache
	}
	blob, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return fmt.Errorf("bad base64: %v", err)
	}
	st, err := wk.Cache.Merge(blob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ok cachemerge added=%d known=%d total=%d\n", st.Added, st.Known, wk.Cache.Len())
	return nil
}
