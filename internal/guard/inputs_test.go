package guard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"merlin/internal/ebpf"
)

// digest hashes an input stream: each input as its context and its packet,
// both length-prefixed (uint32 little-endian).
func digest(ins []Input) string {
	h := sha256.New()
	var n [4]byte
	for _, in := range ins {
		for _, b := range [][]byte{in.Ctx, in.Pkt} {
			binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The generator's bytes are a contract: the benchmark's cycle figures and
// reference checks, and the guard and superopt differential samples, are all
// computed over them. These digests were recorded from the original
// one-input-at-a-time generator; a change that moves one changes every
// downstream figure.
func TestInputsDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		hook ebpf.HookType
		n    int
		seed int64
		want string
	}{
		{ebpf.HookXDP, 64, 1, "e37da91417da8c6dd874f9c6b0f3cd394fc3f1db670e7f24a0b77ce82b5b1894"},
		{ebpf.HookXDP, 4096, 7, "a99670dca0d5a353a92d9f47a8e1a297f479c54ee84c80a4cafc2342c25bb7d8"},
		{ebpf.HookSocketFilter, 100, 3, "6abb735dc9f2029336484981fc9c6891f4c46f251b3618d140665c2ac102d505"},
		{ebpf.HookTracepoint, 256, 11, "a3688259d221932cb2e3391fdb8925b9d526a34ef70cecb3504acc6de1c70fbd"},
		{ebpf.HookKprobe, 32, 42, "f5d7f3ac8e5250f274d43c5eb700eca8413273055cff77d173a94109e53968d5"},
	} {
		if got := digest(Inputs(c.hook, c.n, c.seed)); got != c.want {
			t.Errorf("Inputs(%v, %d, %d) digest %s, want %s", c.hook, c.n, c.seed, got, c.want)
		}
	}
}

// Any cut of a Stream into Fill calls concatenates to Inputs; refilling
// buffers a program has scribbled over, or that are too small or too large,
// gives the same bytes; and Reset on a used Stream starts it afresh.
func TestStreamMatchesInputs(t *testing.T) {
	for _, hook := range []ebpf.HookType{ebpf.HookXDP, ebpf.HookTracepoint} {
		const n, seed = 301, 5
		want := Inputs(hook, n, seed)
		for _, chunk := range []int{1, 7, 8, 64, 256, n} {
			t.Run(fmt.Sprintf("%v/chunk%d", hook, chunk), func(t *testing.T) {
				var s Stream
				s.Reset(ebpf.HookSocketFilter, 99) // a used stream
				s.Fill(make([]Input, 3))
				s.Reset(hook, seed)
				buf := make([]Input, chunk)
				var got []Input
				for len(got) < n {
					k := min(chunk, n-len(got))
					s.Fill(buf[:k])
					for i := range buf[:k] {
						got = append(got, Input{
							Ctx: append([]byte(nil), buf[i].Ctx...),
							Pkt: append([]byte(nil), buf[i].Pkt...),
						})
						// Scribble as a program would, and vary the
						// capacity the next refill finds.
						for _, b := range [][]byte{buf[i].Ctx, buf[i].Pkt} {
							for j := range b {
								b[j] = 0xa5
							}
						}
						if i%3 == 0 {
							buf[i].Pkt = buf[i].Pkt[:0:0]
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stream in chunks of %d differs from Inputs", chunk)
				}
			})
		}
	}
}

// Refilling a chunk of buffers sized by an earlier fill allocates nothing.
func TestStreamRefillAllocatesNothing(t *testing.T) {
	var s Stream
	buf := make([]Input, 64)
	s.Reset(ebpf.HookXDP, 1)
	s.Fill(buf)
	if avg := testing.AllocsPerRun(20, func() {
		s.Reset(ebpf.HookXDP, 1)
		s.Fill(buf)
	}); avg != 0 {
		t.Fatalf("Reset+Fill of 64 reused inputs allocates %.1f times", avg)
	}
}
