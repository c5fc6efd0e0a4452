package superopt

import (
	"fmt"
	"strings"
	"testing"

	"merlin/internal/ebpf"
)

// fedVerdict builds a distinct verdict keyed by n for federation tests.
func fedVerdict(n int) Verdict {
	return Verdict{Improved: true, Repl: []ebpf.Instruction{ebpf.Mov64Imm(0, int32(n))}}
}

// TestFederationRoundTrip: export everything from one cache, merge into a
// fresh one, and every verdict arrives byte-for-byte.
func TestFederationRoundTrip(t *testing.T) {
	a := NewMemCache()
	for i := 0; i < 10; i++ {
		a.Put(fmt.Sprintf("k%d", i), fedVerdict(i))
	}
	a.Put("k-neg", Verdict{})
	blob, seq, n, err := a.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 || seq != 11 {
		t.Fatalf("export n=%d seq=%d, want 11/11", n, seq)
	}
	b := NewMemCache()
	st, err := b.Merge(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 11 || st.Known != 0 {
		t.Fatalf("merge stats %+v, want Added=11 Known=0", st)
	}
	for i := 0; i < 10; i++ {
		got, ok := b.Get(fmt.Sprintf("k%d", i))
		if !ok || !verdictsEqual(got, fedVerdict(i)) {
			t.Fatalf("k%d lost or corrupted in merge: %+v ok=%v", i, got, ok)
		}
	}
	if v, ok := b.Get("k-neg"); !ok || v.Improved {
		t.Fatalf("negative verdict lost: %+v ok=%v", v, ok)
	}
	// Idempotence: re-merging the same blob adds nothing and errors nothing.
	st, err = b.Merge(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 0 || st.Known != 11 {
		t.Fatalf("re-merge stats %+v, want Added=0 Known=11", st)
	}
}

// TestFederationDelta: the seq watermark returned by Export bounds the next
// delta, and a stale (too-large) watermark degrades to a full export.
func TestFederationDelta(t *testing.T) {
	c := NewMemCache()
	c.Put("a", fedVerdict(1))
	c.Put("b", fedVerdict(2))
	_, seq, n, err := c.Export(0)
	if err != nil || n != 2 {
		t.Fatalf("first export n=%d err=%v", n, err)
	}
	c.Put("c", fedVerdict(3))
	blob, seq2, n, err := c.Export(seq)
	if err != nil || n != 1 || seq2 != 3 {
		t.Fatalf("delta export n=%d seq=%d err=%v, want 1/3", n, seq2, err)
	}
	b := NewMemCache()
	if _, err := b.Merge(blob); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("delta merged %d entries, want 1", b.Len())
	}
	if _, ok := b.Get("c"); !ok {
		t.Fatal("delta missed the new key")
	}
	// Watermark beyond the cache's length (e.g. cache rebuilt after restart)
	// must fall back to a full export, never panic or return nothing.
	_, _, n, err = c.Export(99)
	if err != nil || n != 3 {
		t.Fatalf("stale watermark export n=%d err=%v, want full 3", n, err)
	}
}

// TestFederationConflict: two caches holding different verdicts for the same
// key must refuse to merge — loud error, neither side mutated.
func TestFederationConflict(t *testing.T) {
	a := NewMemCache()
	b := NewMemCache()
	a.Put("shared", fedVerdict(1))
	a.Put("only-a", fedVerdict(7))
	b.Put("shared", fedVerdict(2)) // conflicting verdict for the same key
	b.Put("only-b", fedVerdict(9))

	blobA, _, _, err := a.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Merge(blobA); err == nil {
		t.Fatal("conflicting merge succeeded; want loud error")
	} else if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflict error does not say so: %v", err)
	}
	// Neither cache mutated: b keeps its own verdict, never gains only-a,
	// and a is untouched.
	if v, _ := b.Get("shared"); !verdictsEqual(v, fedVerdict(2)) {
		t.Fatalf("b's verdict overwritten by failed merge: %+v", v)
	}
	if _, ok := b.Get("only-a"); ok {
		t.Fatal("failed merge leaked entries into b")
	}
	if b.Len() != 2 || a.Len() != 2 {
		t.Fatalf("cache sizes changed: a=%d b=%d, want 2/2", a.Len(), b.Len())
	}
	blobB, _, _, err := b.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Merge(blobB); err == nil {
		t.Fatal("reverse merge must conflict too")
	}
	if a.Len() != 2 {
		t.Fatalf("a mutated by failed merge: %d entries", a.Len())
	}
}

// TestFederationBlobInternalConflict: a blob carrying two different verdicts
// for one key is rejected before anything is applied.
func TestFederationBlobInternalConflict(t *testing.T) {
	// An export is the producer record followed by the entry records, so two
	// exports concatenate into one blob once the second loses its producer
	// record (an 8-byte header and the name).
	var blob []byte
	for i := 1; i <= 2; i++ {
		c := NewMemCache()
		c.Put("dup", fedVerdict(i))
		b, _, _, err := c.Export(0)
		if err != nil {
			t.Fatal(err)
		}
		if blob != nil {
			b = b[8+len(Producer):]
		}
		blob = append(blob, b...)
	}
	c := NewMemCache()
	c.Put("pre", fedVerdict(5))
	if _, err := c.Merge(blob); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("internal blob conflict not rejected: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("failed merge mutated cache: %d entries", c.Len())
	}
}

// TestFederationPersistentMerge: merged entries journal like local ones and
// survive a reopen.
func TestFederationPersistentMerge(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	remote := NewMemCache()
	remote.Put("r1", fedVerdict(1))
	remote.Put("r2", Verdict{})
	blob, _, _, err := remote.Export(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Merge(blob); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, ok := c2.Get("r1"); !ok || !verdictsEqual(v, fedVerdict(1)) {
		t.Fatalf("merged verdict lost across reopen: %+v ok=%v", v, ok)
	}
	if _, ok := c2.Get("r2"); !ok {
		t.Fatal("merged negative verdict lost across reopen")
	}
}
