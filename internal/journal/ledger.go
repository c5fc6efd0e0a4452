package journal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"merlin/internal/metrics"
)

// Ledger is the durable half of a mutable state machine, the one append →
// compact → recover path: the owner appends a record per state change, the
// Ledger folds the journal into a snapshot of the owner's state once the log
// holds CompactEvery records (those found at Open included), and Recover
// replays snapshot then records back into the owner. Records, snapshot and
// the re-attachment marker are JSON encodings of values the owner supplies;
// what they mean — keys, tombstones, latest-wins — is the owner's codec.
// lifecycle.Manager and fleet.Controller are its two owners.
//
// Storage failure has one policy: serving wins over durability. A failed
// write is counted and the owner carries on. DegradeAfter consecutive
// failures detach the journal: every write is skipped, and each write, Sync
// or Tick runs a re-attachment probe once the backoff (RetryBase, doubling
// up to RetryMax) has expired. The probe is a forced-fsync marker record;
// when it lands, one compaction re-persists the owner's whole state.
//
// A Ledger is not safe for concurrent use: the owner calls it under its own
// lock, and the LedgerOptions callbacks run under that lock.
type Ledger struct {
	o    LedgerOptions
	log  *Log
	met  *ledgerMetrics // nil until the ledger has, or is told it lacks, a log
	last Stats          // the log accounting Collect already published

	degraded   bool
	fails      int // consecutive failures, reset by any success
	backoff    time.Duration
	nextRetry  time.Time
	reattaches int
}

// LedgerOptions parameterize NewLedger. Zero policy fields take the
// defaults CompactEvery 256, DegradeAfter 3, RetryBase 1s, RetryMax 1m.
type LedgerOptions struct {
	Fold                       func() any             // the owner's whole state, as the snapshot
	Marker                     func(at time.Time) any // the re-attachment probe record
	Degraded                   func(why string)       // the journal was detached
	Reattached                 func(n int)            // runs before a re-attach's compaction
	Now                        func() time.Time       // the owner's clock
	Metrics                    *metrics.Registry      // nil keeps the telemetry private
	Prefix                     string                 // of every metric name
	CompactEvery, DegradeAfter int
	RetryBase, RetryMax        time.Duration
}

// NewLedger returns a ledger over log; a nil log keeps the owner in memory
// until Attach.
func NewLedger(log *Log, o LedgerOptions) *Ledger {
	o.CompactEvery = cmp.Or(max(o.CompactEvery, 0), 256)
	o.DegradeAfter = cmp.Or(max(o.DegradeAfter, 0), 3)
	o.RetryBase = cmp.Or(max(o.RetryBase, 0), time.Second)
	o.RetryMax = cmp.Or(max(o.RetryMax, 0), time.Minute)
	l := &Ledger{o: o, log: log}
	if log != nil {
		l.register()
	}
	return l
}

// Attached reports whether the ledger has a log, degraded or not.
func (l *Ledger) Attached() bool { return l.log != nil }

// Degraded reports whether writes are being skipped.
func (l *Ledger) Degraded() bool { return l.degraded }

// Append journals the record rec returns; sync forces an fsync before Append
// returns, and an unforced record reaches disk at the log's next barrier
// (Sync, say). rec runs only when the record will be written: while
// degraded Append is a probe, whose compaction holds rec's state anyway.
func (l *Ledger) Append(rec func() any, sync bool) {
	if l.degraded || l.log == nil {
		l.probe()
		return
	}
	payload, err := json.Marshal(rec())
	if err != nil {
		l.met.appendErrs.Inc()
		return
	}
	if err := l.log.Append(payload, sync); err != nil {
		l.fail("append", err)
		return
	}
	l.fails = 0
	l.met.appends.Inc()
	if l.log.Records() >= l.o.CompactEvery {
		l.Compact()
	}
}

// Compact writes the owner's fold as the snapshot and retires the journal.
func (l *Ledger) Compact() {
	if l.degraded || l.log == nil {
		return
	}
	payload, err := json.Marshal(l.o.Fold())
	if err != nil {
		l.met.appendErrs.Inc()
		return
	}
	if err := l.log.Compact(payload); err != nil {
		l.fail("compact", err)
		return
	}
	l.fails = 0
	l.met.compactions.Inc()
	l.met.snapBytes.Set(int64(len(payload)))
}

// Sync flushes the journal to stable storage; while degraded it is a probe.
func (l *Ledger) Sync() {
	if l.degraded || l.log == nil {
		l.probe()
		return
	}
	if err := l.log.Sync(); err != nil {
		l.fail("sync", err)
		return
	}
	l.fails = 0
}

// Tick runs a re-attachment probe when one is due.
func (l *Ledger) Tick() { l.probe() }

// fail counts one failure and detaches the journal once the consecutive run
// reaches DegradeAfter.
func (l *Ledger) fail(op string, err error) {
	l.met.appendErrs.Inc()
	if l.fails++; !l.degraded && l.fails >= l.o.DegradeAfter {
		l.degrade(fmt.Sprintf("journal detached after %d consecutive %s failures (last: %v); serving in-memory, retrying in %s",
			l.fails, op, err, l.o.RetryBase))
	}
}

func (l *Ledger) degrade(why string) {
	l.degraded = true
	l.backoff = l.o.RetryBase
	l.nextRetry = l.o.Now().Add(l.backoff)
	l.met.degraded.Set(1)
	l.met.degradations.Inc()
	l.o.Degraded(why)
}

// probe re-attaches a degraded journal whose backoff has expired; a failed
// probe doubles the backoff. Without a log there is nothing to probe: the
// owner re-opens storage and calls Attach.
func (l *Ledger) probe() {
	if !l.degraded || l.log == nil || l.o.Now().Before(l.nextRetry) {
		return
	}
	if err := l.mark(); err != nil {
		l.backoff = min(2*l.backoff, l.o.RetryMax)
		l.nextRetry = l.o.Now().Add(l.backoff)
		return
	}
	l.reattach()
}

// mark appends the re-attachment marker, fsynced: a probe must prove the
// whole write path, not a buffered write.
func (l *Ledger) mark() error {
	payload, err := json.Marshal(l.o.Marker(l.o.Now()))
	if err == nil {
		err = l.log.Append(payload, true)
	}
	return err
}

func (l *Ledger) reattach() {
	l.degraded, l.fails = false, 0
	l.reattaches++
	l.met.degraded.Set(0)
	l.met.reattaches.Inc()
	l.o.Reattached(l.reattaches)
	l.Compact()
}

// MarkUnavailable degrades a ledger whose storage could not be opened, so
// the outage shows in Health and the metrics while the owner serves in
// memory and retries the open.
func (l *Ledger) MarkUnavailable(reason string) {
	l.register()
	if !l.degraded {
		l.fails = l.o.DegradeAfter
		l.degrade("journal unavailable at startup: " + reason)
	}
}

// Attach hands the ledger a (re)opened log. A degraded ledger probes it at
// once; if the marker fails the log stays attached, degraded, and the
// backoff probes take over.
func (l *Ledger) Attach(log *Log) error {
	l.log, l.last = log, Stats{}
	l.register()
	if !l.degraded {
		return nil
	}
	if err := l.mark(); err != nil {
		l.nextRetry = l.o.Now().Add(l.backoff)
		return err
	}
	l.reattach()
	return nil
}

// Recovery is what Recover found. The owner's callbacks count the snapshot
// bytes they applied, the records they replayed and the payloads they could
// not use; Recover adds the framing damage the log found itself.
type Recovery struct {
	SnapshotBytes, Replayed, Corrupt int
}

// Recover replays the attached log into its owner — the snapshot payload,
// when there is one, through snap, then every intact record through rec in
// append order — and publishes the counts. An error from snap ends the
// recovery; a read fault or an error from rec ends the replay and is
// returned with what was replayed before it.
func (l *Ledger) Recover(snap, rec func(payload []byte, r *Recovery) error) (Recovery, error) {
	var r Recovery
	if payload, ok := l.log.Snapshot(); ok {
		if err := snap(payload, &r); err != nil {
			return r, err
		}
	}
	err := l.log.Replay(func(p []byte) error { return rec(p, &r) })
	r.Corrupt += l.log.Stats().CorruptRecords
	l.met.corrupt.Add(uint64(r.Corrupt))
	l.met.replayed.Add(uint64(r.Replayed))
	l.met.snapBytes.Set(int64(r.SnapshotBytes))
	return r, err
}

// Collect publishes the log's own accounting: size, segments, and the fsync,
// rotation and soft-error counts since the last Collect.
func (l *Ledger) Collect() {
	if l.log == nil {
		return
	}
	st := l.log.Stats()
	l.met.bytes.Set(l.log.Size())
	l.met.fsyncs.Add(uint64(st.Fsyncs - l.last.Fsyncs))
	l.met.rotations.Add(uint64(st.Rotations - l.last.Rotations))
	l.met.compactSoft.Add(uint64(st.CompactSoftErrors - l.last.CompactSoftErrors))
	l.met.segments.Set(int64(st.Segments))
	l.last = st
}

// Health is the point-in-time durability state, printed by status output.
type Health struct {
	Configured          bool          // given a log, or told one should exist
	Degraded            bool          // state is NOT being persisted
	ConsecutiveFailures int           // the current run of failures
	Reattaches          int           // over the owner's life
	RetryIn             time.Duration // until the next probe; 0 when due or healthy
}

func (h Health) String() string {
	if !h.Configured {
		return "journal=off"
	}
	if !h.Degraded {
		return fmt.Sprintf("journal=ok reattaches=%d", h.Reattaches)
	}
	return fmt.Sprintf("journal=degraded failures=%d retry_in=%s reattaches=%d",
		h.ConsecutiveFailures, h.RetryIn.Round(time.Millisecond), h.Reattaches)
}

// Health reports the ledger's durability state.
func (l *Ledger) Health() Health {
	h := Health{Configured: l.log != nil || l.degraded, Degraded: l.degraded,
		ConsecutiveFailures: l.fails, Reattaches: l.reattaches}
	if l.degraded {
		h.RetryIn = max(l.nextRetry.Sub(l.o.Now()), 0)
	}
	return h
}

type ledgerMetrics struct {
	appends, appendErrs, compactions, corrupt, replayed *metrics.Counter
	degradations, reattaches, compactSoft, fsyncs       *metrics.Counter
	rotations                                           *metrics.Counter
	snapBytes, bytes, degraded, segments                *metrics.Gauge
}

// register resolves the metric handles once. Without an owner registry they
// count into a private one, so no update needs a nil check.
func (l *Ledger) register() {
	if l.met != nil {
		return
	}
	reg, p := l.o.Metrics, l.o.Prefix
	if reg == nil {
		reg = metrics.New()
	}
	l.met = &ledgerMetrics{
		appends:      reg.Counter(p+"appends_total", "Records appended to the journal."),
		appendErrs:   reg.Counter(p+"append_errors_total", "Journal appends or compactions that failed (state may lag disk)."),
		compactions:  reg.Counter(p+"compactions_total", "Snapshot compactions (journal truncations)."),
		corrupt:      reg.Counter(p+"corrupt_records_total", "Corrupt or torn journal/snapshot records discarded during open, replay, or decode."),
		replayed:     reg.Counter(p+"replayed_records_total", "Journal records replayed by Recover."),
		snapBytes:    reg.Gauge(p+"snapshot_bytes", "Payload size of the last written or recovered snapshot."),
		bytes:        reg.Gauge(p+"bytes", "Current journal file size."),
		degraded:     reg.Gauge(p+"degraded", "1 while the journal is detached after persistent storage failures (serving continues in-memory)."),
		degradations: reg.Counter(p+"degradations_total", "Times persistent storage failures detached the journal."),
		reattaches:   reg.Counter(p+"reattaches_total", "Successful journal re-attachments after degradation."),
		compactSoft:  reg.Counter(p+"compact_soft_errors_total", "Best-effort durability steps (snapshot fsync, dir fsync, segment removal) that failed during compaction."),
		fsyncs:       reg.Counter(p+"fsyncs_total", "Journal fsyncs: forced appends plus barriers (Sync, segment rotation, Close)."),
		rotations:    reg.Counter(p+"rotations_total", "Journal segment rollovers."),
		segments:     reg.Gauge(p+"segments", "Current journal segment file count."),
	}
}
