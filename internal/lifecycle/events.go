package lifecycle

import (
	"fmt"
	"strconv"

	"merlin/internal/vm"
)

// Stage is a position in the deployment state machine. A candidate moves
// staged → shadow → canary and is then promotable to live; any fault on the
// way parks the slot in quarantined until the watchdog's backoff expires.
type Stage string

const (
	// StageStaged: built and loaded into a machine, not yet receiving
	// mirrored traffic. The first served packet advances it to shadow.
	StageStaged Stage = "staged"
	// StageShadow: running on mirrored traffic next to the incumbent;
	// rejected on any return-value divergence, runtime fault or budget
	// blowout. The incumbent's verdict is always the one served.
	StageShadow Stage = "shadow"
	// StageCanary: still mirrored, with the cycle-cost regression gate armed
	// on top of the shadow checks.
	StageCanary Stage = "canary"
	// StageLive: serving traffic; only one deployment per slot is live.
	StageLive Stage = "live"
	// StageQuarantined: the candidate faulted and was torn down; the
	// watchdog rebuilds it after an exponential backoff, up to MaxRetries.
	StageQuarantined Stage = "quarantined"
)

// FaultBudget is the watchdog's own fault class for deployments that exceed
// the configured per-run instruction or cycle budget without the VM itself
// reporting a fault.
const FaultBudget vm.FaultKind = "budget"

// EventKind classifies a structured per-slot lifecycle event.
type EventKind string

const (
	// EventDeployed: a candidate was built and staged.
	EventDeployed EventKind = "deployed"
	// EventBuildFault: the guarded deployment build contained a pass failure
	// (one event per guard.PassFailure, including verifier bisection).
	EventBuildFault EventKind = "build-fault"
	// EventStageAdvance: the candidate moved to the next stage (or cleared
	// canary and became promotable).
	EventStageAdvance EventKind = "stage-advance"
	// EventPromoted: the candidate was atomically hot-swapped to live.
	EventPromoted EventKind = "promoted"
	// EventRejected: automatic rollback — the candidate was discarded for a
	// return-value divergence or a cycle-cost regression. Deterministic
	// failures are not retried.
	EventRejected EventKind = "rejected"
	// EventQuarantined: the watchdog tore the candidate down for a runtime
	// fault or budget blowout and scheduled a rebuild.
	EventQuarantined EventKind = "quarantined"
	// EventRetry: the backoff expired and a rebuild attempt started.
	EventRetry EventKind = "retry"
	// EventGaveUp: rebuild attempts are exhausted; the slot keeps serving
	// the incumbent indefinitely.
	EventGaveUp EventKind = "gave-up"
	// EventRolledBack: an explicit rollback restored the previous live
	// program.
	EventRolledBack EventKind = "rolled-back"
	// EventAborted: an operator (or the fleet controller halting a rollout)
	// discarded the in-flight candidate without touching the incumbent.
	EventAborted EventKind = "aborted"
	// EventDegraded: the *incumbent* faulted and the slot fell back to the
	// last-known-good program or the clang baseline.
	EventDegraded EventKind = "degraded"
	// EventRecovered: the slot was reconstructed from the journal after a
	// restart (Manager.Recover). Any in-flight candidate from before the
	// crash was rolled back to last-known-good — i.e. dropped, with the
	// journaled incumbent still live.
	EventRecovered EventKind = "recovered"
	// EventJournalDegraded: persistent storage failures detached the journal;
	// the manager keeps serving fully in-memory and retries re-attachment
	// with exponential backoff.
	EventJournalDegraded EventKind = "journal-degraded"
	// EventJournalReattached: a re-attachment probe succeeded; a recovery
	// marker was journaled and every slot's current state re-persisted.
	EventJournalReattached EventKind = "journal-reattached"
)

// Event is the structured record of one lifecycle transition, the runtime
// analog of guard.PassFailure: tests and operators consume these instead of
// grepping logs.
type Event struct {
	// Seq is a per-slot monotonic sequence number.
	Seq int
	// Slot names the program slot.
	Slot string
	// Kind is the transition that fired.
	Kind EventKind
	// Stage is the candidate's stage when the event fired (StageLive for
	// promotions, degradations and incumbent-side events).
	Stage Stage
	// Generation identifies the deployment the event is about.
	Generation int
	// Fault carries the VM fault kind (or FaultBudget) for quarantine and
	// degradation events; empty otherwise.
	Fault vm.FaultKind
	// Detail is a human-readable description.
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("slot %s gen %d [%s] %s", e.Slot, e.Generation, e.Stage, e.Kind)
	if e.Fault != "" {
		s += fmt.Sprintf(" (%s)", e.Fault)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// SlotStatus is a point-in-time health snapshot of one slot, the Result-like
// status surface merlind prints.
type SlotStatus struct {
	Slot string
	// Stage summarizes the slot: the candidate's stage when one is in
	// flight, quarantined while the watchdog backs off, live otherwise.
	Stage Stage
	// LiveGeneration / LiveNI describe the serving program (0/-1 when
	// nothing is live yet).
	LiveGeneration int
	LiveNI         int
	// Candidate describes the in-flight deployment, if any.
	CandidateGeneration int
	CandidateStage      Stage
	CandidateRuns       int
	// Cleared reports that the candidate passed the canary gate and may be
	// promoted.
	Cleared bool
	// Served / Mirrored count incumbent runs and candidate mirror runs.
	Served   uint64
	Mirrored uint64
	// CanaryRouted counts live packets whose verdict was answered by the
	// canary under DeployOptions.CanaryFraction.
	CanaryRouted uint64
	// Retries is the number of rebuild attempts consumed; Dead means they
	// are exhausted.
	Retries int
	Dead    bool
	// EventSeq is the total number of events the slot has ever emitted (the
	// Seq of the newest event); the bounded ring below may hold fewer.
	EventSeq int
	// Events is a copy of the slot's recent event ring (oldest first).
	Events []Event
}

func (s SlotStatus) String() string { return string(s.AppendText(nil)) }

// AppendText appends the status line String returns to b, allocating only to
// grow b — the worker's traffic reply ends with it on every RPC.
func (s SlotStatus) AppendText(b []byte) []byte {
	b = append(b, "slot="...)
	b = append(b, s.Slot...)
	b = append(b, " stage="...)
	b = append(b, s.Stage...)
	b = append(b, " live=gen"...)
	b = strconv.AppendInt(b, int64(s.LiveGeneration), 10)
	b = append(b, " ni="...)
	b = strconv.AppendInt(b, int64(s.LiveNI), 10)
	b = append(b, " served="...)
	b = strconv.AppendUint(b, s.Served, 10)
	b = append(b, " mirrored="...)
	b = strconv.AppendUint(b, s.Mirrored, 10)
	if s.CandidateGeneration > 0 {
		b = append(b, " candidate=gen"...)
		b = strconv.AppendInt(b, int64(s.CandidateGeneration), 10)
		b = append(b, '/')
		b = append(b, s.CandidateStage...)
		b = append(b, " runs="...)
		b = strconv.AppendInt(b, int64(s.CandidateRuns), 10)
		b = append(b, " cleared="...)
		b = strconv.AppendBool(b, s.Cleared)
	}
	if s.CanaryRouted > 0 {
		b = append(b, " canary_routed="...)
		b = strconv.AppendUint(b, s.CanaryRouted, 10)
	}
	if s.Retries > 0 || s.Dead {
		b = append(b, " retries="...)
		b = strconv.AppendInt(b, int64(s.Retries), 10)
		b = append(b, " dead="...)
		b = strconv.AppendBool(b, s.Dead)
	}
	if s.EventSeq > 0 {
		b = append(b, " eseq="...)
		b = strconv.AppendInt(b, int64(s.EventSeq), 10)
	}
	return b
}
