package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"merlin/internal/chaos"
)

// ChaosTransport wraps a Transport and applies a chaos.NetPlan's faults to
// every RPC: dropped connections fail before the worker sees the request,
// one-way partitions and resets execute the request but lose the reply
// (side effects land, the caller cannot tell), duplication executes it
// twice, delays stall it. Deterministic given a deterministic plan and call
// order.
type ChaosTransport struct {
	Inner Transport
	Plan  chaos.NetPlan
	// Delay is the NetDelay stall (default 2ms).
	Delay time.Duration

	mu    sync.Mutex
	stats chaos.NetStats
}

// WithChaos interposes plan between the controller and inner.
func WithChaos(inner Transport, plan chaos.NetPlan) *ChaosTransport {
	return &ChaosTransport{
		Inner: inner, Plan: plan, Delay: 2 * time.Millisecond,
	}
}

// Stats returns a copy of the fault accounting so far.
func (t *ChaosTransport) Stats() chaos.NetStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Faults = map[chaos.NetFault]int{}
	for k, v := range t.stats.Faults {
		st.Faults[k] = v
	}
	return st
}

func (t *ChaosTransport) record(f chaos.NetFault) {
	t.mu.Lock()
	t.stats.RPCs++
	if f != chaos.NetNone {
		if t.stats.Faults == nil {
			t.stats.Faults = map[chaos.NetFault]int{}
		}
		t.stats.Faults[f]++
	}
	t.mu.Unlock()
}

// errPartition marks reply-lost faults; the controller sees an opaque
// transport error, tests can errors.Is for it.
var errPartition = errors.New("reply lost")

func (t *ChaosTransport) RPC(ctx context.Context, addr, line string) ([]string, error) {
	verb, _, _ := strings.Cut(line, " ")
	f := t.Plan.NextNet(addr, verb)
	t.record(f)
	switch f {
	case chaos.NetDrop:
		return nil, fmt.Errorf("chaos: connection to %s dropped", addr)
	case chaos.NetDelay:
		d := t.Delay
		if d <= 0 {
			d = 2 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return t.Inner.RPC(ctx, addr, line)
	case chaos.NetDup:
		// Both deliveries take effect; the caller sees the second reply —
		// exactly what a retransmitted request does to a non-idempotent
		// endpoint.
		if _, err := t.Inner.RPC(ctx, addr, line); err != nil {
			return nil, err
		}
		return t.Inner.RPC(ctx, addr, line)
	case chaos.NetOneWay:
		_, _ = t.Inner.RPC(ctx, addr, line)
		return nil, fmt.Errorf("chaos: %s deadline exceeded: %w", addr, errPartition)
	case chaos.NetReset:
		_, _ = t.Inner.RPC(ctx, addr, line)
		return nil, fmt.Errorf("chaos: connection to %s reset mid-reply: %w", addr, errPartition)
	}
	return t.Inner.RPC(ctx, addr, line)
}
