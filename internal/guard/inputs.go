package guard

import (
	"encoding/binary"
	"math/rand"

	"merlin/internal/ebpf"
	"merlin/internal/vm"
)

// Input is one sampled VM input for differential validation.
type Input struct {
	Ctx []byte
	Pkt []byte
}

// Inputs generates n deterministic sampled inputs appropriate for the hook:
// packet mixes for XDP/socket-filter programs (varying length, ethertype and
// payload), scalar argument blocks for tracepoint/kprobe programs. The same
// (hook, n, seed) always yields the same inputs — the byte stream is a
// contract (DESIGN.md §9): reference checks and cycle figures are computed
// over it.
func Inputs(hook ebpf.HookType, n int, seed int64) []Input {
	out := make([]Input, n)
	var s Stream
	s.Reset(hook, seed)
	s.Fill(out)
	return out
}

// pktLens is the packet length cycle of a packet hook's stream: input i is
// pktLens[i%len(pktLens)] bytes.
var pktLens = [...]int{14, 34, 60, 64, 96, 128, 256, 640}

// ramp is every packet's body before its fill byte is applied: ramp[j] =
// byte(j), so a packet with fill f holds byte(j)^f at offset j.
var ramp = func() (r [640]byte) {
	for j := range r {
		r[j] = byte(j)
	}
	return r
}()

var l4Protos = [...]byte{6, 17, 1}

// tracepointCtx is the size of a tracepoint/kprobe input's context: eight
// 8-byte arguments.
const tracepointCtx = 64

// Stream is the generator behind Inputs, yielding the same inputs a piece at
// a time into caller-owned buffers: after Reset(hook, seed), successive
// Fill calls over slices of total length n write exactly Inputs(hook, n,
// seed), however the slices are cut. A serving loop that refills the same
// few buffers therefore allocates nothing per input. The zero value must be
// Reset before use.
type Stream struct {
	hook ebpf.HookType
	rng  *rand.Rand
	i    int // inputs generated since the last Reset
}

// Reset restarts the stream at the first input of (hook, seed). It re-seeds
// the stream's own source in place rather than allocating a new one.
func (s *Stream) Reset(hook ebpf.HookType, seed int64) {
	s.hook, s.i = hook, 0
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
}

// Fill overwrites dst with the stream's next len(dst) inputs. Every byte of
// each input is rewritten, so buffers a program has modified refill
// correctly; an element's Ctx and Pkt backing arrays are reused when their
// capacity suffices and replaced otherwise.
func (s *Stream) Fill(dst []Input) {
	for k := range dst {
		in := &dst[k]
		i := s.i
		s.i++
		if s.hook != ebpf.HookXDP && s.hook != ebpf.HookSocketFilter {
			ctx := sized(in.Ctx, tracepointCtx)
			for j := 0; j < tracepointCtx; j += 8 {
				binary.LittleEndian.PutUint64(ctx[j:], s.rng.Uint64()>>uint(s.rng.Intn(33)))
			}
			in.Ctx, in.Pkt = ctx, nil
			continue
		}
		p := pktLens[i%len(pktLens)]
		pkt := sized(in.Pkt, p)
		fillRamp(pkt, byte(s.rng.Intn(256)))
		// Every length is at least an Ethernet header. Bias toward IPv4 so
		// parse paths get exercised.
		if s.rng.Intn(2) == 0 {
			pkt[12], pkt[13] = 0x08, 0x00
		}
		if p >= 34 {
			pkt[14] = 0x45
			pkt[14+9] = l4Protos[s.rng.Intn(len(l4Protos))]
		}
		in.Ctx, in.Pkt = vm.BuildXDPContextInto(in.Ctx, p), pkt
	}
}

// fillRamp writes byte(j)^fill to dst[j], eight bytes at a time.
func fillRamp(dst []byte, fill byte) {
	f := uint64(fill) * 0x0101010101010101
	j := 0
	for ; j+8 <= len(dst); j += 8 {
		binary.LittleEndian.PutUint64(dst[j:], binary.LittleEndian.Uint64(ramp[j:])^f)
	}
	for ; j < len(dst); j++ {
		dst[j] = ramp[j] ^ fill
	}
}

// sized returns b resized to n bytes, reusing its array when it is large
// enough.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
