package live

import (
	"fmt"
	"testing"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

// rtEvent builds one outgoing data record for a flow — enough to
// admit it and advance its analyzer.
func rtEvent(flowID string, i int) trace.RecordEvent {
	return trace.RecordEvent{
		FlowID: flowID,
		MSS:    1460,
		Rec: trace.Record{
			T:   sim.Time(time.Duration(i) * 10 * time.Millisecond),
			Dir: tcpsim.DirOut,
			Seg: tcpsim.Segment{
				Seq:   uint32(1 + i*100),
				Len:   100,
				Wnd:   65535,
				Flags: packet.FlagACK | packet.FlagPSH,
			},
		},
	}
}

func feedN(m *Monitor, flowID string, n int) {
	evs := make([]trace.RecordEvent, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, rtEvent(flowID, i))
	}
	m.IngestBatchWait(evs)
}

// drain waits until the monitor's counters have settled: the shard
// queues are empty for two consecutive polls. Promotion replays can
// double-count a record (fast path + analyzer), so summed counters
// cannot be compared to Ingested directly.
func drain(m *Monitor) {
	deadline := time.Now().Add(5 * time.Second)
	stable := 0
	var last Snapshot
	for time.Now().Before(deadline) {
		s := m.Snapshot()
		if s.Ingested == last.Ingested &&
			s.RecordsFed == last.RecordsFed &&
			s.RecordsCapDrop == last.RecordsCapDrop &&
			s.TriageFastRecords == last.TriageFastRecords &&
			s.FlowsSeen == last.FlowsSeen {
			stable++
			if stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		last = s
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSetMaxRecordsPerFlowBetweenBatches(t *testing.T) {
	m := New(Config{Shards: 1})
	m.Start()
	defer m.Close()

	feedN(m, "f1", 10)
	drain(m)
	if s := m.Snapshot(); s.RecordsCapDrop != 0 {
		t.Fatalf("cap drops before retune: %d", s.RecordsCapDrop)
	}

	m.SetMaxRecordsPerFlow(12)
	if got := m.MaxRecordsPerFlow(); got != 12 {
		t.Fatalf("MaxRecordsPerFlow = %d, want 12", got)
	}
	// 10 already fed; the next batch may add 2 more, the other 8 must
	// be dropped and counted.
	feedN(m, "f1", 10)
	drain(m)
	s := m.Snapshot()
	if s.RecordsFed != 12 {
		t.Errorf("records fed = %d, want 12", s.RecordsFed)
	}
	if s.RecordsCapDrop != 8 {
		t.Errorf("cap drops = %d, want 8", s.RecordsCapDrop)
	}

	// 0 restores the constructed default (100000): a fresh flow runs
	// uncapped again.
	m.SetMaxRecordsPerFlow(0)
	if got := m.MaxRecordsPerFlow(); got != 100000 {
		t.Errorf("reset MaxRecordsPerFlow = %d, want constructed default 100000", got)
	}
	// Negative disables the cap outright.
	m.SetMaxRecordsPerFlow(-1)
	feedN(m, "f2", 20)
	drain(m)
	if s := m.Snapshot(); s.RecordsCapDrop != 8 {
		t.Errorf("cap drops after disable = %d, want unchanged 8", s.RecordsCapDrop)
	}
}

func TestSetTriageEnabledAffectsNewAdmissionsOnly(t *testing.T) {
	m := New(Config{Shards: 1, Triage: &triage.Config{}})
	m.Start()
	defer m.Close()

	if !m.TriageEnabled() {
		t.Fatal("triage should default on when configured")
	}
	feedN(m, "tri-flow", 3)
	drain(m)

	if !m.SetTriageEnabled(false) {
		t.Fatal("disabling triage rejected")
	}
	feedN(m, "full-flow", 3)
	// The pre-existing flow must stay on its fast path.
	feedN(m, "tri-flow", 3)
	drain(m)

	byID := map[string]FlowInfo{}
	for _, fi := range m.Flows() {
		byID[fi.ID] = fi
	}
	if !byID["tri-flow"].Triaged {
		t.Error("flow admitted under triage lost its fast path after the toggle")
	}
	if byID["full-flow"].Triaged {
		t.Error("flow admitted with triage disabled still went to the fast path")
	}

	if !m.SetTriageEnabled(true) {
		t.Fatal("re-enabling triage rejected")
	}
	feedN(m, "tri-flow-2", 3)
	drain(m)
	fi, ok := m.Flow("tri-flow-2")
	if !ok || !fi.Triaged {
		t.Errorf("flow admitted after re-enable not triaged: %+v (ok=%v)", fi, ok)
	}
}

func TestSetTriageEnabledRequiresConfiguredTriage(t *testing.T) {
	m := New(Config{Shards: 1})
	if m.SetTriageEnabled(true) {
		t.Error("enabling triage without Config.Triage should be rejected")
	}
	if m.TriageEnabled() {
		t.Error("TriageEnabled true without Config.Triage")
	}
	// Disabling is always allowed (it is already the effective state).
	if !m.SetTriageEnabled(false) {
		t.Error("disabling triage should always succeed")
	}
}

func TestSetFlightEnabledAffectsNewAnalyzers(t *testing.T) {
	m := New(Config{Shards: 1, Flight: &flight.Config{}})
	m.Start()
	defer m.Close()

	feedN(m, "with-flight", 3)
	drain(m)
	if !m.SetFlightEnabled(false) {
		t.Fatal("disabling flight rejected")
	}
	feedN(m, "no-flight", 3)
	drain(m)

	ft, ok := m.FlowTrace("with-flight")
	if !ok || !ft.Flight {
		t.Errorf("flow admitted with flight enabled has no recorder (ok=%v flight=%v)", ok, ft.Flight)
	}
	ft, ok = m.FlowTrace("no-flight")
	if !ok || ft.Flight {
		t.Errorf("flow admitted with flight disabled still has a recorder (ok=%v flight=%v)", ok, ft.Flight)
	}

	m2 := New(Config{Shards: 1})
	if m2.SetFlightEnabled(true) {
		t.Error("enabling flight without Config.Flight should be rejected")
	}
}

// TestRuntimeDefaultsMatchConfig pins that the knobs start exactly
// where the constructed Config put them, for every combination.
func TestRuntimeDefaultsMatchConfig(t *testing.T) {
	for _, tc := range []struct {
		triage, flight bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("triage=%v flight=%v", tc.triage, tc.flight), func(t *testing.T) {
			cfg := Config{}
			if tc.triage {
				cfg.Triage = &triage.Config{}
			}
			if tc.flight {
				cfg.Flight = &flight.Config{}
			}
			m := New(cfg)
			if m.TriageEnabled() != tc.triage {
				t.Errorf("TriageEnabled = %v, want %v", m.TriageEnabled(), tc.triage)
			}
			if m.FlightEnabled() != tc.flight {
				t.Errorf("FlightEnabled = %v, want %v", m.FlightEnabled(), tc.flight)
			}
			if m.MaxRecordsPerFlow() != m.Config().MaxRecordsPerFlow {
				t.Errorf("MaxRecordsPerFlow = %d, want %d", m.MaxRecordsPerFlow(), m.Config().MaxRecordsPerFlow)
			}
		})
	}
}
