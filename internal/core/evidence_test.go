package core

import (
	"testing"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/tcpsim"
)

// retransScenario produces one tail-retransmission stall plus a
// client-idle stall — two causes, so evidence tests can check both
// Figure-5 branches and the Table-5 walk.
func retransScenario() scenario {
	return scenario{seed: 7, reqs: []tcpsim.Request{
		{Size: 20_000},
		{IdleBefore: 500 * time.Millisecond, Size: 20_000},
	}, dropPlan: map[int]int{14: 1}}
}

// AnalyzeFlight must classify identically to Analyze — the recorder
// may observe, never steer.
func TestAnalyzeFlightMatchesAnalyze(t *testing.T) {
	f := retransScenario().runFlow(t)
	plain := Analyze(f, DefaultConfig())
	traced, rec := AnalyzeFlight(f, DefaultConfig(), flight.Config{})
	if rec == nil {
		t.Fatal("AnalyzeFlight returned no recorder")
	}
	if len(plain.Stalls) != len(traced.Stalls) {
		t.Fatalf("stall counts differ: %d vs %d", len(plain.Stalls), len(traced.Stalls))
	}
	for i := range plain.Stalls {
		p, q := plain.Stalls[i], traced.Stalls[i]
		q.Evidence = nil // the only permitted difference
		if p != q {
			t.Errorf("stall %d diverges:\nplain:  %+v\ntraced: %+v", i, p, q)
		}
	}
}

// Every stall must carry a resolvable evidence ref whose settled
// decision path ends at the reported cause, with the stall-ending
// record inside the captured window.
func TestEvidenceResolvesPerStall(t *testing.T) {
	f := retransScenario().runFlow(t)
	a, rec := AnalyzeFlight(f, DefaultConfig(), flight.Config{})
	if len(a.Stalls) == 0 {
		t.Fatal("scenario produced no stalls")
	}
	for i, st := range a.Stalls {
		if st.ID != i {
			t.Errorf("stall %d has ID %d: IDs must be monotonic in detection order", i, st.ID)
		}
		if st.Evidence == nil {
			t.Fatalf("stall %d has no evidence ref", i)
		}
		if st.Evidence.Flow != a.FlowID || st.Evidence.Stall != st.ID {
			t.Errorf("stall %d evidence ref = %v", i, st.Evidence)
		}
		ev := rec.Evidence(st.Evidence.Stall)
		if ev == nil {
			t.Fatalf("evidence %v does not resolve", st.Evidence)
		}
		if ev.Cause != st.Cause.String() {
			t.Errorf("stall %d evidence cause %q, stall cause %q", i, ev.Cause, st.Cause)
		}
		if st.Cause == CauseTimeoutRetrans && ev.SubCause != st.RetransCause.String() {
			t.Errorf("stall %d evidence sub-cause %q, stall %q", i, ev.SubCause, st.RetransCause)
		}
		if len(ev.Decision) == 0 {
			t.Errorf("stall %d evidence has no decision path", i)
		}
		// The decision path must end on a taken branch (the verdict).
		if last := ev.Decision[len(ev.Decision)-1]; !last.Taken {
			t.Errorf("stall %d decision path ends on a non-taken branch: %v", i, last)
		}
		found := false
		for _, s := range ev.Window {
			if s.Idx == st.EndRecIdx {
				found = true
				if s.T != st.End {
					t.Errorf("stall %d closing sample at %v, stall end %v", i, s.T, st.End)
				}
			}
		}
		if !found {
			t.Errorf("stall %d window %v misses closing record %d", i, ev.Window, st.EndRecIdx)
		}
	}
	// A retransmission stall's trail must include the Table-5 walk.
	retrans := retransOf(a, RetransTail)
	if len(retrans) == 0 {
		t.Fatalf("scenario produced no tail-retransmission stall: %+v", a.Stalls)
	}
	ev := rec.Evidence(retrans[0].ID)
	sawT5 := false
	for _, s := range ev.Decision {
		if len(s.Rule) > 2 && s.Rule[:2] == "T5" {
			sawT5 = true
		}
	}
	if !sawT5 {
		t.Errorf("tail stall decision path has no Table-5 steps: %+v", ev.Decision)
	}
}

// The recorder must have seen typed events from the flow: segment
// sends, RTT updates, and a stall open/close pair per stall.
func TestRecorderEventStream(t *testing.T) {
	f := retransScenario().runFlow(t)
	// A window wider than the flow keeps every event.
	a, rec := AnalyzeFlight(f, DefaultConfig(), flight.Config{WindowK: len(f.Records)})
	byKind := map[flight.Kind]int{}
	for _, e := range rec.Events() {
		byKind[e.Kind]++
	}
	if byKind[flight.KindSeg] < a.DataPackets {
		t.Errorf("seg events = %d, want ≥ %d data packets", byKind[flight.KindSeg], a.DataPackets)
	}
	if byKind[flight.KindRTT] == 0 {
		t.Error("no RTT events")
	}
	if byKind[flight.KindStallOpen] != len(a.Stalls) || byKind[flight.KindStallClose] != len(a.Stalls) {
		t.Errorf("stall open/close events = %d/%d, want %d each",
			byKind[flight.KindStallOpen], byKind[flight.KindStallClose], len(a.Stalls))
	}
}

// Stall IDs surfaced through OnStall must match the flushed stalls
// and the evidence refs — one identifier, every plane.
func TestLiveStallIDsMatchFlush(t *testing.T) {
	f := retransScenario().runFlow(t)
	inc := NewIncremental(DefaultConfig())
	inc.SetMeta(FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	rec := flight.NewRecorder(flight.Config{})
	inc.SetRecorder(rec)
	var liveIDs []int
	inc.OnStall = func(ls LiveStall) { liveIDs = append(liveIDs, ls.Stall.ID) }
	for i := range f.Records {
		inc.Feed(&f.Records[i])
	}
	a := inc.Flush()
	if len(liveIDs) != len(a.Stalls) {
		t.Fatalf("live events = %d, flushed stalls = %d", len(liveIDs), len(a.Stalls))
	}
	for i, st := range a.Stalls {
		if liveIDs[i] != st.ID {
			t.Errorf("live stall %d has ID %d, flushed ID %d", i, liveIDs[i], st.ID)
		}
		ev := rec.Evidence(st.ID)
		if ev == nil || ev.Ref.Stall != st.ID {
			t.Errorf("stall %d evidence keyed off a different ID", st.ID)
		}
	}
}
