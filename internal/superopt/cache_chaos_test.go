package superopt

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"merlin/internal/chaos"
	"merlin/internal/ebpf"
	"merlin/internal/journal"
)

// TestCacheChaosSurvival: with seeded faults fired at every cache I/O site,
// Put/Flush/Close never panic or corrupt, and a clean reopen serves every
// entry that survived — a damaged entry is a miss, never a wrong verdict.
func TestCacheChaosSurvival(t *testing.T) {
	verdict := func(i int) Verdict {
		if i%3 == 0 {
			return Verdict{Improved: false}
		}
		return Verdict{Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, int32(i))}}
	}
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		inj := chaos.Wrap(chaos.OS(), chaos.NewRate(seed, 0.05, chaos.EIO, chaos.ENOSPC, chaos.Torn))
		inj.SlowDelay = 0
		c, err := OpenCacheWith(dir, journal.Options{FS: inj, SegmentBytes: 512})
		if err != nil {
			continue // the open itself faulted; nothing persisted to verify
		}
		for i := 0; i < 100; i++ {
			c.Put(fmt.Sprintf("window-%03d", i), verdict(i))
		}
		_ = c.Close() // flush/compact may fault too; must not panic

		c2, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("seed %d: clean reopen failed: %v", seed, err)
		}
		for i := 0; i < 100; i++ {
			got, ok := c2.Get(fmt.Sprintf("window-%03d", i))
			if !ok {
				continue // lost to a fault: a miss, which is safe
			}
			want := verdict(i)
			if got.Improved != want.Improved || len(got.Repl) != len(want.Repl) {
				t.Fatalf("seed %d: window-%03d corrupted: got %+v want %+v", seed, i, got, want)
			}
		}
		c2.Close()
	}
}

// TestOptimizeSyncsVerdictsOnce: every search miss of one Optimize call
// reaches the journal in one batch — at most one fsync per call under the
// default sync-every-append policy, where it used to be one per miss — and all
// of them are on disk when Optimize returns: a second cache replaying the
// same directory's journal resolves every window without searching.
func TestOptimizeSyncsVerdictsOnce(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.Wrap(chaos.OS(), chaos.NewSchedule()) // no faults: it counts
	c, err := OpenCacheWith(dir, journal.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	var insns []ebpf.Instruction
	for i := 0; i < 6; i++ { // six distinct foldable chains: several misses
		insns = append(insns,
			ebpf.LoadMem(ebpf.SizeDW, ebpf.R2, ebpf.R1, int16(8*i)),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, int32(5+i)),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, int32(3+2*i)),
			ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R0, ebpf.R2))
	}
	insns = append(insns, ebpf.Exit())
	prog := &ebpf.Program{Name: "t", Hook: ebpf.HookTracepoint, MCPU: 3, Insns: insns}

	before := inj.Stats()
	_, st, err := Optimize(prog, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	after := inj.Stats()
	if st.Searches < 2 {
		t.Fatalf("want several search misses in one call, got %d", st.Searches)
	}
	if got := after.Ops[chaos.OpWrite] - before.Ops[chaos.OpWrite]; got != 1 {
		t.Errorf("%d journal writes for one Optimize call with %d misses, want 1", got, st.Searches)
	}
	if got := after.Ops[chaos.OpSync] - before.Ops[chaos.OpSync]; got > 1 {
		t.Errorf("%d fsyncs for one Optimize call with %d misses, want at most 1", got, st.Searches)
	}

	// The journal as it stands (cache still open, nothing compacted) already
	// serves every verdict.
	segs, err := journal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, seg), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// One record per searched verdict, which is also what the store counts
	// towards compaction (journal's TestStoreBatchIsOneWriteOneSync).
	l, err := journal.Open(copyDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Records; got != st.Searches {
		t.Errorf("journal holds %d records for %d searched verdicts", got, st.Searches)
	}
	l.Close()
	replayed, err := OpenCache(copyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	_, st2, err := Optimize(prog, Config{Cache: replayed})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Searches != 0 || st2.CacheHits != st.Searches+st.CacheHits {
		t.Errorf("replayed journal: searches=%d hits=%d, want 0 and %d", st2.Searches, st2.CacheHits, st.Searches+st.CacheHits)
	}
}
