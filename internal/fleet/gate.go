package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"merlin/internal/lifecycle"
)

// gate is one worker's gated install of a source into a slot: deploy stages
// a candidate, canary feeds the worker's own shadow/canary state machine one
// traffic batch per step and reads its verdict off the reply, promote
// switches the cleared candidate live. The worker's lifecycle manager is the
// judge; the controller only interprets the slot status it reports.
//
// It is the one code path that puts a version live through the gate: a
// rollout steps it on each worker in turn (its Phase is the rollout's phase,
// journaled with it), a join steps it on one target. The reconciler's restore
// is the only ungated install — it holds a replica to the blessed version,
// which already paid this gate during the rollout that blessed it.
type gate struct {
	Phase  string `json:"phase"`
	Cand   int    `json:"cand,omitempty"` // candidate generation the deploy staged
	Canary int    `json:"canary"`         // canary feeds spent on the candidate
}

// outcome is what one gate step decided.
type outcome int

const (
	gatePending      outcome = iota // step taken, no verdict yet
	gateBootstrapped                // no incumbent: the deploy went live ungated
	gatePromoted                    // the candidate cleared canary and is live
	gateRefused                     // refused, rejected, quarantined, vanished or stalled
	gateUnreachable                 // transport failure: nothing was decided
)

// gateStep advances g by one RPC to worker. It returns the outcome, the
// slot's live generation when the install landed, and why when it did not.
// A promote whose reply is lost is ambiguous, so the gate drops back to
// canary: the next feed's status says whether it landed. Called without mu,
// on a copy of the caller's gate.
func (c *Controller) gateStep(worker, slot, src string, g *gate) (outcome, int, string) {
	switch g.Phase {
	case PhaseDeploy:
		lines, err := c.rpc(worker, "deploy "+slot+" "+src, false)
		if err != nil {
			return gateUnreachable, 0, "deploy: " + err.Error()
		}
		rep, ok := parseDeployReply(lines)
		if !ok {
			return gateRefused, 0, "deploy refused: " + lastLine(lines)
		}
		if rep.candGen == 0 {
			return gateBootstrapped, rep.liveGen, ""
		}
		*g = gate{Phase: PhaseCanary, Cand: rep.candGen}
		return gatePending, 0, ""
	case PhasePromote:
		lines, err := c.rpc(worker, "promote "+slot, false)
		g.Phase = PhaseCanary
		if err != nil {
			return gateUnreachable, 0, "promote: " + err.Error()
		}
		if last, ok := ReplyOK(lines); ok {
			return gatePromoted, parseLiveGen(last), ""
		}
		// "has not cleared canary": the candidate regressed after the feed
		// that cleared it. Feed and judge it again.
		return gatePending, 0, ""
	}

	lines, err := c.rpc(worker, "traffic "+slot+" "+strconv.Itoa(c.cfg.TrafficBatch), false)
	if err != nil {
		return gateUnreachable, 0, "canary feed: " + err.Error()
	}
	// The reply is "ok traffic <slot> n=<n> verdicts[...] <status>"; an err
	// reply (the slot is gone) leaves no status to parse.
	last, _ := ReplyOK(lines)
	_, tail, _ := strings.Cut(last, "] ")
	switch st, err := lifecycle.ParseSlotStatus(tail); {
	case err != nil:
		return gateRefused, 0, "slot vanished: " + lastLine(lines)
	case st.Stage == lifecycle.StageQuarantined:
		return gateRefused, 0, "candidate quarantined"
	case st.CandidateGeneration == 0 && st.LiveGeneration >= g.Cand:
		// Candidate gone and the live generation reached it: an earlier
		// promote landed but its reply was lost.
		return gatePromoted, st.LiveGeneration, ""
	case st.CandidateGeneration == 0:
		return gateRefused, 0, "candidate rejected by the canary gate"
	case st.CandidateGeneration != g.Cand:
		// A duplicated deploy staged a newer candidate; adopt it.
		g.Cand = st.CandidateGeneration
	case st.Cleared:
		g.Phase = PhasePromote
	default:
		if g.Canary++; g.Canary > c.cfg.MaxCanarySteps {
			return gateRefused, 0, fmt.Sprintf("canary stalled after %d steps", c.cfg.MaxCanarySteps)
		}
	}
	return gatePending, 0, ""
}
