package lifecycle

import "testing"

func TestParseSlotStatusRoundTrip(t *testing.T) {
	cases := []SlotStatus{
		{Slot: "a", Stage: StageLive, LiveGeneration: 3, LiveNI: 17, Served: 120, Mirrored: 40},
		{Slot: "b", Stage: StageCanary, LiveGeneration: 1, LiveNI: 9, Served: 5, Mirrored: 5,
			CandidateGeneration: 2, CandidateStage: StageCanary, CandidateRuns: 7, Cleared: true},
		{Slot: "c", Stage: StageQuarantined, LiveGeneration: 2, LiveNI: 4,
			Retries: 2, Dead: true, CanaryRouted: 11},
		{Slot: "fresh", Stage: StageLive, LiveGeneration: 0, LiveNI: -1},
	}
	for _, want := range cases {
		got, err := ParseSlotStatus(want.String())
		if err != nil {
			t.Fatalf("ParseSlotStatus(%q): %v", want.String(), err)
		}
		if got.Slot != want.Slot || got.Stage != want.Stage ||
			got.LiveGeneration != want.LiveGeneration || got.LiveNI != want.LiveNI ||
			got.Served != want.Served || got.Mirrored != want.Mirrored ||
			got.CandidateGeneration != want.CandidateGeneration ||
			got.CandidateStage != want.CandidateStage ||
			got.CandidateRuns != want.CandidateRuns || got.Cleared != want.Cleared ||
			got.CanaryRouted != want.CanaryRouted ||
			got.Retries != want.Retries || got.Dead != want.Dead {
			t.Fatalf("round trip of %q lost fields:\n got %+v\nwant %+v", want.String(), got, want)
		}
	}
}

// The status line is a wire format (status replies, the tail of every traffic
// reply), so its text is pinned literally, and appending it to a buffer with
// room allocates nothing.
func TestSlotStatusAppendTextWireFormat(t *testing.T) {
	for _, tc := range []struct {
		st   SlotStatus
		want string
	}{
		{SlotStatus{Slot: "a", Stage: StageLive, LiveGeneration: 3, LiveNI: 17, Served: 120, Mirrored: 40},
			"slot=a stage=live live=gen3 ni=17 served=120 mirrored=40"},
		{SlotStatus{Slot: "b", Stage: StageCanary, LiveGeneration: 1, LiveNI: 9, Served: 5, Mirrored: 5,
			CandidateGeneration: 2, CandidateStage: StageCanary, CandidateRuns: 7, Cleared: true, EventSeq: 12},
			"slot=b stage=canary live=gen1 ni=9 served=5 mirrored=5 candidate=gen2/canary runs=7 cleared=true eseq=12"},
		{SlotStatus{Slot: "c", Stage: StageQuarantined, LiveGeneration: 2, LiveNI: 4, Retries: 2, Dead: true, CanaryRouted: 11},
			"slot=c stage=quarantined live=gen2 ni=4 served=0 mirrored=0 canary_routed=11 retries=2 dead=true"},
		{SlotStatus{Slot: "fresh", Stage: StageLive, LiveNI: -1},
			"slot=fresh stage=live live=gen0 ni=-1 served=0 mirrored=0"},
	} {
		if got := tc.st.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
		if got := string(tc.st.AppendText([]byte("ok x "))); got != "ok x "+tc.want {
			t.Fatalf("AppendText after a prefix = %q", got)
		}
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(10, func() { buf = tc.st.AppendText(buf[:0]) }); n != 0 {
			t.Fatalf("AppendText into a buffer with room allocated %v times", n)
		}
	}
}

func TestParseSlotStatusRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"", "ok status", "journal=degraded", "slot=x stage=live live=banana",
		"stage=live live=gen1", "slot=x candidate=gen2",
	} {
		if _, err := ParseSlotStatus(line); err == nil {
			t.Fatalf("ParseSlotStatus(%q) accepted garbage", line)
		}
	}
	// Unknown fields from a newer worker are tolerated.
	st, err := ParseSlotStatus("slot=x stage=live live=gen2 ni=4 served=1 mirrored=0 future=42")
	if err != nil || st.LiveGeneration != 2 {
		t.Fatalf("forward-compat parse failed: %+v %v", st, err)
	}
}

func TestAbortDiscardsCandidate(t *testing.T) {
	m := NewManager(Config{ShadowRuns: 2, CanaryRuns: 2})
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy("s", progSource(goodProg(), nil)); err != nil {
		t.Fatal(err)
	}
	st, _ := m.StatusOf("s")
	if st.CandidateGeneration == 0 {
		t.Fatal("no candidate staged")
	}
	if err := m.Abort("s"); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	st, _ = m.StatusOf("s")
	if st.CandidateGeneration != 0 || st.Stage != StageLive {
		t.Fatalf("candidate survived abort: %+v", st)
	}
	found := false
	for _, ev := range m.Events("s") {
		if ev.Kind == EventAborted {
			found = true
		}
	}
	if !found {
		t.Fatal("no aborted event recorded")
	}
	// Nothing left to abort.
	if err := m.Abort("s"); err == nil {
		t.Fatal("second Abort succeeded with no candidate")
	}
	if err := m.Abort("nope"); err == nil {
		t.Fatal("Abort of unknown slot succeeded")
	}
	// The incumbent still serves.
	serveClean(t, m, "s", 1)
}
