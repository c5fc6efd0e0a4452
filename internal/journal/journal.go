// Package journal is a durable, crash-tolerant state store: an append-only,
// length-prefixed, CRC32C-checksummed record log paired with an atomically
// replaced snapshot file. It is the persistence floor under the lifecycle
// manager — slot transitions are appended as they happen, the full state is
// periodically compacted into the snapshot, and recovery replays
// snapshot + journal.
//
// The design goal is that corruption is never fatal. A torn write (the
// process was SIGKILLed mid-append, the disk filled, the file was truncated)
// leaves a record whose length prefix, checksum, or payload is incomplete;
// Open detects the damage, counts it, discards the broken tail, and truncates
// the active segment back to its last intact record so subsequent appends
// start from a clean boundary. A corrupt or missing snapshot degrades to "no
// snapshot". The caller always gets a working log plus an honest accounting
// of what was lost — it never gets an error that would prevent startup.
//
// For long-lived daemons the log is split into bounded segments:
//
//	journal.log        the base segment (segment 0, also the whole journal
//	                   when rotation never triggers)
//	journal.000001 …   rotated segments, oldest number first
//
// Append rotates to a fresh segment once the active one crosses
// Options.SegmentBytes, so no file ever grows without bound; Compact retires
// whole segments at once. Damage inside a retired (non-active) segment is
// counted and skipped — the scan resumes at the next segment — and a gap in
// the segment numbering (a missing middle segment) is likewise counted
// loudly and tolerated: records are idempotent upserts, so replaying what
// survived yields a consistent, possibly older, state.
//
// Durability is one rule. A record the caller forces (Append or AppendBatch
// with sync set) is fsynced before the call returns. Any other record is
// made durable by the next barrier: a forced append, Sync, rotation, Compact
// (whose snapshot holds it) or Close. The log counts the bytes written since
// its last successful fsync, a forced append whose fsync failed included, so
// no barrier skips them. A caller that writes k records and needs all of
// them on disk appends them unforced and calls Sync once: one fsync, not k.
//
// Every file operation goes through a chaos.FS (Options.FS), so tests and
// soak harnesses inject ENOSPC, EIO, torn writes, rename failures, and slow
// I/O at every site the journal touches storage.
//
// On-disk format, segments and snapshot alike:
//
//	record := u32le payload length | u32le CRC32C(payload) | payload
//
// Each segment is a sequence of records; the snapshot file holds exactly one.
// Payload contents are opaque to the Log. Store (store.go) is the one keyed
// map built on it, shared by the caches that memoize optimizer results.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"merlin/internal/chaos"
)

const (
	journalName  = "journal.log"
	segDot       = "journal."
	snapshotName = "snapshot.db"
	snapshotTmp  = "snapshot.tmp"

	headerSize = 8 // u32 length + u32 crc

	// maxRecordSize bounds a single record so a corrupt length prefix cannot
	// drive a multi-gigabyte allocation during replay.
	maxRecordSize = 1 << 28
)

// defaultSegmentBytes is the rotation threshold when Options.SegmentBytes is
// zero: big enough that short-lived tools never rotate, small enough that a
// weeks-old daemon's active segment stays cheap to scan and truncate.
const defaultSegmentBytes = 4 << 20

// Options parameterize OpenWith.
type Options struct {
	// FS is the filesystem to operate through (default chaos.OS()). Tests
	// pass a chaos.Injector to fault every file operation.
	FS chaos.FS
	// SegmentBytes is the rotation threshold for the active segment
	// (default defaultSegmentBytes). Appends larger than the threshold still
	// land whole — a segment always holds at least one record.
	SegmentBytes int64
}

// castagnoli is the CRC32C polynomial table (iSCSI/ext4 flavor, hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload (exposed for tests).
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Stats accounts for what the log observed and did. All fields except
// Segments are monotonic over the life of one Log.
type Stats struct {
	// Records is the number of intact journal records found at Open.
	Records int
	// CorruptRecords counts discarded damage: a torn/corrupt tail per
	// segment, an unreadable snapshot, and one per missing middle segment.
	CorruptRecords int
	// TruncatedBytes is how many trailing journal bytes were discarded
	// (truncated off the active segment, skipped in retired ones).
	TruncatedBytes int64
	// SnapshotBytes is the size of the valid snapshot payload (0 if none).
	SnapshotBytes int
	// Appends counts records appended through this handle.
	Appends int
	// Fsyncs counts successful fsyncs of segment files; ForcedFsyncs is the
	// subset demanded by a forced append, the rest are barriers (Sync,
	// rotation, Close). FsyncErrors counts failed ones.
	Fsyncs       int
	ForcedFsyncs int
	FsyncErrors  int
	// Rotations counts segment rollovers; Segments is the current segment
	// file count.
	Rotations int
	Segments  int
	// CompactSoftErrors counts best-effort durability steps that failed
	// during Compact (snapshot-file fsync, directory fsync, retired-segment
	// removal). The compaction itself still committed; the errors mean the
	// result may not survive a power cut until the next successful barrier.
	CompactSoftErrors int
	// RotateSoftErrors counts best-effort failures during rotation (old
	// segment fsync, directory fsync, or segment creation — in which case
	// the active segment simply keeps growing).
	RotateSoftErrors int
	// WedgeRepairs counts torn appends successfully rolled back (the file
	// was truncated to the last record boundary after a failed write).
	WedgeRepairs int
}

// Log is an open state directory. All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	dir      string
	fs       chaos.FS
	segBytes int64
	f        chaos.File // active segment
	lock     *os.File   // held flock on the state dir; see lock.go
	segs     []string   // segment file names, oldest first; last is active
	segNum   int64      // number of the active segment (0 = journal.log)
	size     int64      // active segment size in bytes
	total    int64      // intact bytes across all segments
	recs     int        // records appended since Open or the last Compact
	unsynced int64      // active-segment bytes written since the last successful fsync
	wedged   bool       // a torn append could not be rolled back; repair before next write
	stats    Stats
}

// Open opens (creating if needed) the state directory and its journal with
// default options: the real filesystem and the default segment size.
func Open(dir string) (*Log, error) { return OpenWith(dir, Options{}) }

// OpenWith opens the state directory, repairing any torn tail. It never
// fails because of corrupt contents — only on real I/O errors (permissions,
// not a directory, a read that faults mid-scan, ...) or when another live
// process holds the directory's advisory lock (two daemons must not share
// one journal; the error names the holder's pid and matches ErrLocked). The
// lock dies with the holding process, so a SIGKILLed owner never blocks a
// restart.
func OpenWith(dir string, o Options) (*Log, error) {
	fs := o.FS
	if fs == nil {
		fs = chaos.OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	// A leftover snapshot.tmp is a compaction that died before its atomic
	// rename; the snapshot proper is still the authoritative previous one.
	_ = fs.Remove(filepath.Join(dir, snapshotTmp))

	l := &Log{dir: dir, fs: fs, segBytes: o.SegmentBytes, lock: lock}
	if err := l.openSegments(); err != nil {
		releaseLock(lock)
		return nil, err
	}
	return l, nil
}

// segName returns the file name of segment n.
func segName(n int64) string {
	if n == 0 {
		return journalName
	}
	return fmt.Sprintf("%s%06d", segDot, n)
}

// parseSegName maps a directory entry to its segment number, or ok=false.
func parseSegName(name string) (int64, bool) {
	if name == journalName {
		return 0, true
	}
	rest, found := strings.CutPrefix(name, segDot)
	if !found || rest == "" {
		return 0, false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segment numbers, ascending.
func (l *Log) listSegments() ([]int64, error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var nums []int64
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// openSegments scans every segment, repairs the active one's tail, and
// leaves l positioned to append.
func (l *Log) openSegments() error {
	nums, err := l.listSegments()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(nums) == 0 {
		nums = []int64{0}
	}
	// A hole in the numbering is a lost middle segment: replay what
	// survives (records are idempotent upserts) but say so loudly.
	for i := 1; i < len(nums); i++ {
		if nums[i] != nums[i-1]+1 {
			l.stats.CorruptRecords++
		}
	}

	for i, n := range nums {
		name := segName(n)
		path := filepath.Join(l.dir, name)
		active := i == len(nums)-1
		flag := os.O_RDONLY
		if active {
			flag = os.O_RDWR | os.O_CREATE
		}
		f, err := l.fs.OpenFile(path, flag, 0o644)
		if err != nil {
			l.closeSegsOnErr()
			return fmt.Errorf("journal: %w", err)
		}
		valid, recs, err := scanRecords(f, nil)
		if err != nil {
			f.Close()
			l.closeSegsOnErr()
			return fmt.Errorf("journal: scanning %s: %w", path, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			l.closeSegsOnErr()
			return fmt.Errorf("journal: %w", err)
		}
		if torn := fi.Size() - valid; torn > 0 {
			// Torn or corrupt tail. In the active segment the damage is cut
			// off so the next append lands on a record boundary; in a retired
			// segment it is read-only — count it and move on.
			l.stats.CorruptRecords++
			l.stats.TruncatedBytes += torn
			if active {
				if err := f.Truncate(valid); err != nil {
					f.Close()
					l.closeSegsOnErr()
					return fmt.Errorf("journal: truncating torn tail: %w", err)
				}
			}
		}
		l.recs += recs
		l.total += valid
		l.segs = append(l.segs, name)
		if active {
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				l.closeSegsOnErr()
				return fmt.Errorf("journal: %w", err)
			}
			l.f = f
			l.segNum = n
			l.size = valid
		} else {
			f.Close()
		}
	}
	l.stats.Records = l.recs
	l.stats.Segments = len(l.segs)
	return nil
}

func (l *Log) closeSegsOnErr() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// scanRecords walks the record stream in r, invoking fn (when non-nil) with
// each intact payload. It returns the byte offset of the end of the last
// intact record and the record count. Torn or corrupt data is not an error —
// the scan just stops at it; only a real read fault (EIO mid-stream, as
// opposed to EOF) is returned as an error, because truncating at a transient
// read failure would destroy good records.
func scanRecords(r io.ReadSeeker, fn func(payload []byte) error) (valid int64, records int, err error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if isEOF(err) {
				// Clean EOF or a torn header: the stream ends here.
				return valid, records, nil
			}
			return valid, records, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordSize {
			return valid, records, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if isEOF(err) {
				return valid, records, nil // torn payload
			}
			return valid, records, err
		}
		if Checksum(payload) != want {
			return valid, records, nil // bit rot or a torn overwrite
		}
		valid += headerSize + int64(n)
		records++
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, records, err
			}
		}
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// frame wraps payload in the on-disk record framing.
func frame(payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(payload)), payload)
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// Append writes one record to the journal. With sync set the record is
// fsynced before Append returns: use it for what must survive a machine
// crash, not just a process crash. Without it the record reaches stable
// storage at the next barrier (a forced append, Sync, rotation, Compact or
// Close).
func (l *Log) Append(payload []byte, sync bool) error {
	return l.AppendBatch([][]byte{payload}, sync)
}

// AppendBatch writes payloads as consecutive records with one write and, when
// sync is set, one fsync. Each payload is framed on its own — replay,
// torn-tail repair and record counts cannot tell a batch from single appends
// — and a failed write rolls the whole batch back to the last record
// boundary. A batch is never split across segments: rotation is decided
// before it is written.
func (l *Log) AppendBatch(payloads [][]byte, sync bool) error {
	if len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("journal: closed")
	}
	if l.wedged && !l.repairLocked() {
		return errors.New("journal: wedged by an unrepairable torn append")
	}
	if l.size > 0 && l.size >= l.segBytes {
		l.rotateLocked()
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	if _, err := l.f.Write(buf); err != nil {
		// The write may have landed partially; garbage after the last record
		// boundary would otherwise hide every later append from the scanner.
		// Roll the file back to the known-good end.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.wedged = true
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.wedged = true
		} else {
			l.stats.WedgeRepairs++
		}
		return fmt.Errorf("journal: append: %w", err)
	}
	l.size += int64(len(buf))
	l.total += int64(len(buf))
	l.unsynced += int64(len(buf))
	l.recs += len(payloads)
	l.stats.Appends += len(payloads)
	if sync {
		if err := l.fsyncLocked(true); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// repairLocked retries the truncate a wedged log needs before it can accept
// appends again.
func (l *Log) repairLocked() bool {
	if err := l.f.Truncate(l.size); err != nil {
		return false
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return false
	}
	l.wedged = false
	l.stats.WedgeRepairs++
	return true
}

// fsyncLocked flushes the active segment. A failure leaves the unsynced
// bytes counted, so the next barrier retries them.
func (l *Log) fsyncLocked(forced bool) error {
	if err := l.f.Sync(); err != nil {
		l.stats.FsyncErrors++
		return err
	}
	l.stats.Fsyncs++
	if forced {
		l.stats.ForcedFsyncs++
	}
	l.unsynced = 0
	return nil
}

// rotateLocked rolls the journal onto a fresh segment. Rotation is
// best-effort: if the old segment cannot be synced or the new one cannot be
// created, the active segment simply keeps growing and the next append
// retries.
func (l *Log) rotateLocked() {
	// The old segment's unsynced tail must be durable before appends move
	// on — an fsync of the new file would not cover it, and once the old
	// file is closed no later barrier could.
	if l.unsynced > 0 && l.fsyncLocked(false) != nil {
		l.stats.RotateSoftErrors++
		return
	}
	next := l.segNum + 1
	var nf chaos.File
	for {
		var err error
		nf, err = l.fs.OpenFile(filepath.Join(l.dir, segName(next)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		if errors.Is(err, os.ErrExist) {
			// A stale segment left behind by an interrupted compaction;
			// skip over it rather than appending into old data.
			next++
			continue
		}
		l.stats.RotateSoftErrors++
		return
	}
	l.syncDir(&l.stats.RotateSoftErrors)
	l.f.Close()
	l.f = nf
	l.segNum = next
	l.size = 0
	l.segs = append(l.segs, segName(next))
	l.stats.Rotations++
	l.stats.Segments = len(l.segs)
}

// syncDir fsyncs the state directory so renames and segment creations are
// durable. Best effort — not every filesystem supports directory fsync; a
// failure bumps the given soft-error counter.
func (l *Log) syncDir(softCounter *int) {
	dh, err := l.fs.OpenFile(l.dir, os.O_RDONLY, 0)
	if err != nil {
		*softCounter++
		return
	}
	if err := dh.Sync(); err != nil {
		*softCounter++
	}
	dh.Close()
}

// Sync is the explicit barrier: it fsyncs the active segment, which makes
// every record appended so far durable (rotation already synced the older
// segments).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("journal: closed")
	}
	return l.fsyncLocked(false)
}

// Replay invokes fn with every intact journal record in append order, oldest
// segment first. It stops early if fn returns an error and returns that
// error.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("journal: closed")
	}
	var ferr error
	for i, name := range l.segs {
		active := i == len(l.segs)-1
		var r io.ReadSeeker
		if active {
			r = l.f
		} else {
			f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_RDONLY, 0)
			if err != nil {
				// The segment vanished or faulted since Open: skip it the way
				// Open skips a damaged middle segment.
				l.stats.CorruptRecords++
				continue
			}
			r = f
		}
		_, _, err := scanRecords(r, fn)
		if !active {
			r.(io.Closer).Close()
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil && err == nil {
			err = fmt.Errorf("journal: %w", serr)
		}
		if err != nil {
			ferr = err
			break
		}
	}
	if ferr == nil && l.f != nil {
		// Reposition for appends even when an early segment ended the loop.
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			ferr = fmt.Errorf("journal: %w", serr)
		}
	}
	return ferr
}

// Snapshot returns the payload of the snapshot file, or ok=false when there
// is none (missing, torn, or corrupt — corruption is counted, not fatal).
func (l *Log) Snapshot() (payload []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := filepath.Join(l.dir, snapshotName)
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var got []byte
	valid, records, _ := scanRecords(f, func(p []byte) error {
		got = p
		return nil
	})
	if records == 0 {
		// A snapshot file exists but holds no intact record: corruption.
		l.stats.CorruptRecords++
		return nil, false
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		// Trailing garbage after the record — count it, keep the record.
		l.stats.CorruptRecords++
	}
	l.stats.SnapshotBytes = len(got)
	return got, true
}

// Compact atomically replaces the snapshot with payload and retires the
// journal's segments: write snapshot.tmp, fsync, rename over snapshot.db,
// fsync the directory, then start a fresh active segment and remove the old
// ones. A crash at any point leaves either the old snapshot + old segments
// or the new snapshot (+ any old segments not yet removed, whose records are
// then harmlessly re-applied on top of the newer snapshot — callers' records
// must be idempotent upserts, which the lifecycle's full-slot-state records
// are). Best-effort durability steps that fail (snapshot fsync, directory
// fsync, segment removal) are counted in Stats.CompactSoftErrors instead of
// being silently discarded.
func (l *Log) Compact(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("journal: closed")
	}
	tmp := filepath.Join(l.dir, snapshotTmp)
	tf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := tf.Write(frame(payload)); err != nil {
		tf.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tf.Sync(); err != nil {
		// The rename below is still atomic; the risk is losing the snapshot
		// to a power cut, in which case the CRC framing degrades it to "no
		// snapshot" and the not-yet-removed segments still replay.
		l.stats.CompactSoftErrors++
	}
	if err := tf.Close(); err != nil {
		l.stats.CompactSoftErrors++
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	l.syncDir(&l.stats.CompactSoftErrors)

	// Retire the old segments and return to the base segment: every record
	// now lives in the snapshot, so the journal restarts as an empty
	// journal.log — the steady-state layout is always the single base file.
	if l.segNum == 0 {
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("journal: compact truncate: %w", err)
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	} else {
		nf, err := l.fs.OpenFile(filepath.Join(l.dir, journalName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			// Keep the current active segment; truncate it in place instead.
			if terr := l.f.Truncate(0); terr != nil {
				return fmt.Errorf("journal: compact truncate: %w", terr)
			}
			if _, serr := l.f.Seek(0, io.SeekStart); serr != nil {
				return fmt.Errorf("journal: %w", serr)
			}
			l.stats.CompactSoftErrors++
		} else {
			l.f.Close()
			l.f = nf
			l.segNum = 0
		}
	}
	l.segs = []string{segName(l.segNum)}
	// Remove every retired segment still on disk — including leftovers from
	// an earlier Compact whose removal failed, which the directory listing
	// (not l.segs) resurfaces for retry.
	if nums, lerr := l.listSegments(); lerr == nil {
		for _, n := range nums {
			if n == l.segNum {
				continue
			}
			if rerr := l.fs.Remove(filepath.Join(l.dir, segName(n))); rerr != nil {
				// The stale segment's records re-apply after the snapshot on
				// the next boot — an older-but-consistent state.
				l.stats.CompactSoftErrors++
			}
		}
	} else {
		l.stats.CompactSoftErrors++
	}
	l.syncDir(&l.stats.CompactSoftErrors)
	l.size = 0
	l.total = 0
	l.recs = 0
	l.unsynced = 0 // the snapshot holds every record the segments did
	l.wedged = false
	l.stats.Segments = len(l.segs)
	l.stats.SnapshotBytes = len(payload)
	return nil
}

// Size returns the journal's intact size in bytes across all segments.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Records returns the journal records appended since Open or the last
// Compact (including the intact records found at Open).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Segments returns the current segment file names, oldest first (exposed for
// tests and the soak harness's prefix sweeps).
func (l *Log) Segments() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.segs...)
}

// Stats returns the accounting accumulated so far.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dir returns the state directory path.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the active segment and releases the state-dir
// lock. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.fsyncLocked(false)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	releaseLock(l.lock)
	l.lock = nil
	return err
}
