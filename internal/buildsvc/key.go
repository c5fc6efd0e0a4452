package buildsvc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"merlin/internal/core"
)

// Request is one build submission: raw module source, the function to
// compile, and the build options. Two requests with equal Key() are the same
// build — same source bytes, same semantic options — and are deduplicated
// into one underlying pipeline run.
type Request struct {
	// Source is the IR module text, byte for byte as submitted.
	Source []byte
	// Func names the function to compile.
	Func string
	// Opts configures the pipeline. Only semantic fields participate in the
	// key (see canonOptions); per-process plumbing like Metrics, Injector,
	// the superopt cache handle and worker counts do not change what is
	// built and are excluded.
	Opts core.Options
}

// Key returns the content-addressed build key: sha256 over the source bytes,
// the function name and the canonicalized options, hex-encoded. This is the
// same hashing discipline as the superopt verdict cache — everything that
// changes the output is in the key, nothing else is.
func (r Request) Key() string {
	h := sha256.New()
	h.Write(r.Source)
	h.Write([]byte{0})
	h.Write([]byte(r.Func))
	h.Write([]byte{0})
	h.Write(canonOptions(r.Opts))
	return hex.EncodeToString(h.Sum(nil))
}

// canonOptions serializes the semantic build options deterministically.
// Fields that select or parameterize transformations are included; plumbing
// (Metrics, Injector, cache handles, search worker counts) is not, and
// neither is PassTimeout: a build whose guard rolled a pass back on its
// time budget is never cached (Service.worker), so the budget cannot change
// what a key's artifact holds. The
// enabled-optimizer set is canonicalized to pipeline order so Enable slices
// that name the same set in different orders share a key, mirroring how the
// superopt cache canonicalizes register names.
func canonOptions(o core.Options) []byte {
	var b []byte
	u32 := func(v uint32) {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	u32(uint32(o.Hook))
	mcpu := o.MCPU
	if mcpu == 0 {
		mcpu = 2 // core.Build's own default; 0 and 2 are the same build
	}
	u32(uint32(mcpu))
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	flag(o.KernelALU32)
	for _, opt := range core.AllOptimizers() {
		flag(o.Enable == nil || containsOpt(o.Enable, opt))
	}
	flag(o.Verify)
	u32(uint32(o.VerifierVersion))
	u32(uint32(o.VerifierLimits.MaxProcessedInsns))
	u32(uint32(o.VerifierLimits.MaxStates))
	flag(o.Guard)
	u32(uint32(o.GuardDiffInputs))
	if o.Superopt != nil {
		b = append(b, 1)
		u32(uint32(o.Superopt.Budget))
		flag(o.Superopt.ALU32)
		b = binary.LittleEndian.AppendUint64(b, uint64(o.Superopt.Seed))
		u32(uint32(o.Superopt.DiffInputs))
	} else {
		b = append(b, 0)
	}
	return b
}

func containsOpt(s []core.Optimizer, o core.Optimizer) bool {
	for _, e := range s {
		if e == o {
			return true
		}
	}
	return false
}

// ShortKey renders a key's 12-hex-digit prefix for logs and protocol lines.
func ShortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// String implements fmt.Stringer for diagnostics.
func (r Request) String() string {
	return fmt.Sprintf("build{func=%s src=%dB key=%s}", r.Func, len(r.Source), ShortKey(r.Key()))
}
