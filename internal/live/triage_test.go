package live

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/groundtruth"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

// capture holds one evicted flow's analysis and its canonical JSON.
type capture struct {
	a *core.FlowAnalysis
	b []byte
}

// collector returns an OnFlow callback storing every eviction, keyed
// by flow ID, plus the map and its guarding mutex.
func collector(t *testing.T) (func(string, *core.FlowAnalysis), map[string]capture, *sync.Mutex) {
	t.Helper()
	got := map[string]capture{}
	var mu sync.Mutex
	return func(reason string, a *core.FlowAnalysis) {
		b, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
		if err != nil {
			t.Errorf("marshal %s: %v", a.FlowID, err)
			return
		}
		mu.Lock()
		got[a.FlowID] = capture{a: a, b: b}
		mu.Unlock()
	}, got, &mu
}

// assertTriageEquiv checks the triage equivalence contract for one
// flow and reports whether the live output was byte-identical to the
// batch analyzer's. Byte inequality is legal only on the
// never-promoted path, where the synthesized summary omits the
// per-ACK series — and there the batch verdict must be "no stalls"
// with matching volume counters, or the fast path let a stall escape.
func assertTriageEquiv(t *testing.T, f *trace.Flow, c capture) bool {
	t.Helper()
	batch := core.Analyze(f, core.Config{})
	want, err := core.MarshalAnalyses([]*core.FlowAnalysis{batch})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c.b, want) {
		return true
	}
	if len(batch.Stalls) != 0 {
		t.Errorf("flow %s: batch found %d stalls but live output differs\nlive:  %s\nbatch: %s",
			f.ID, len(batch.Stalls), c.b, want)
		return false
	}
	if len(c.a.Stalls) != 0 {
		t.Errorf("flow %s: live invented %d stalls on a stall-free flow", f.ID, len(c.a.Stalls))
	}
	if c.a.DataPackets != batch.DataPackets || c.a.DataBytes != batch.DataBytes ||
		c.a.TransmissionTime != batch.TransmissionTime {
		t.Errorf("flow %s: synthesized summary diverges: packets %d/%d bytes %d/%d span %v/%v",
			f.ID, c.a.DataPackets, batch.DataPackets, c.a.DataBytes, batch.DataBytes,
			c.a.TransmissionTime, batch.TransmissionTime)
	}
	return false
}

// TestTriageMatchesBatch is the two-phase subsystem's equivalence
// guarantee over generated workloads: every pathological service plus
// its healthy twin, records interleaved round-robin across flows and
// pushed through the concurrent shard workers with triage enabled, at
// every intake chunk size (boundaries slicing arbitrarily across
// flows). Every flow the batch analyzer finds stalls in must come out
// byte-identical (it was promoted in time); stall-free flows may take
// the synthesized fast-path exit. Run under -race this also guards
// the promotion/demotion locking.
func TestTriageMatchesBatch(t *testing.T) {
	var flows []*trace.Flow
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 7, workload.GenOptions{Flows: 6}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
		for _, fr := range workload.Generate(workload.Healthy(svc), 11, workload.GenOptions{Flows: 6}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	if len(flows) < 20 {
		t.Fatalf("generated only %d usable flows", len(flows))
	}

	cfg := Config{Triage: &triage.Config{}}
	t.Run("generated", func(t *testing.T) {
		forEachChunkSize(t, cfg, interleave(flows), func(t *testing.T, r chunkRun) {
			var stalled, clean int
			for _, f := range flows {
				g := r.evicted[f.ID]
				if len(g) != 1 {
					t.Fatalf("flow %s evicted %d times, want once", f.ID, len(g))
				}
				if assertTriageEquiv(t, f, g[0]) && len(g[0].a.Stalls) > 0 {
					stalled++
				} else if len(g[0].a.Stalls) == 0 {
					clean++
				}
			}
			if stalled == 0 {
				t.Error("no flow exercised the promoted path (want some stalls)")
			}
			if clean == 0 {
				t.Error("no flow exercised the fast path (want some stall-free flows)")
			}

			s := r.snap
			if s.TriageFastRecords == 0 {
				t.Error("TriageFastRecords = 0: triage never engaged")
			}
			var promos uint64
			for _, v := range s.TriagePromotions {
				promos += v
			}
			if promos == 0 {
				t.Error("no promotions recorded despite stalling flows")
			}
			if s.PromotedFlows != 0 || s.ParkedFlows != 0 {
				t.Errorf("gauges not drained after Close: promoted=%d parked=%d",
					s.PromotedFlows, s.ParkedFlows)
			}
		})
	})
	checkEdgeCases(t, cfg)
}

// loadGoldenPcap imports one Figure-5 golden capture from the core
// testdata.
func loadGoldenPcap(t *testing.T, name string) []*trace.Flow {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "core", "testdata", name+".pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flows, err := trace.ImportPcap(f, trace.ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("golden pcap contains no flows")
	}
	return flows
}

// feedFlowsDirect pushes every flow's events through the shards
// synchronously and then forces eviction, returning nothing; results
// land in the caller's collector.
func feedFlowsDirect(t *testing.T, m *Monitor, flows []*trace.Flow) {
	t.Helper()
	for _, f := range flows {
		for _, ev := range events(f) {
			feedDirect(m, ev)
		}
	}
	m.SweepIdleNow(t)
}

// TestTriageMatchesBatchGolden pins byte-identical triaged output on
// the three Figure-5 golden captures — each stalls by construction,
// so each must take the promoted path.
func TestTriageMatchesBatchGolden(t *testing.T) {
	for _, name := range []string{"golden_server", "golden_client", "golden_network"} {
		name := name
		t.Run(name, func(t *testing.T) {
			flows := loadGoldenPcap(t, name)
			clk := &fakeClock{now: time.Unix(1000, 0)}
			onFlow, got, mu := collector(t)
			m := New(Config{Shards: 1, Clock: clk.Now,
				Triage: &triage.Config{}, OnFlow: onFlow})
			feedFlowsDirect(t, m, flows)

			mu.Lock()
			defer mu.Unlock()
			stalled := 0
			for _, f := range flows {
				c, ok := got[f.ID]
				if !ok {
					t.Fatalf("flow %s never evicted", f.ID)
				}
				if assertTriageEquiv(t, f, c) && len(c.a.Stalls) > 0 {
					stalled++
				}
			}
			if stalled == 0 {
				t.Error("no golden flow came out of the promoted path with stalls")
			}
			var promos uint64
			for _, v := range m.Snapshot().TriagePromotions {
				promos += v
			}
			if promos == 0 {
				t.Error("golden trace produced no promotions")
			}
		})
	}
}

// ms converts integer milliseconds to a record timestamp.
func msAt(v int64) sim.Time { return sim.Time(v) * sim.Time(time.Millisecond) }

// wrappedStallFlow hand-builds a stalling flow whose server ISN sits
// just below 2^32, so the data stream, the cumulative ACKs and the
// retransmission all cross the wrap: the fast path's unwrapper and
// the analyzer must agree byte-for-byte through the boundary.
func wrappedStallFlow() *trace.Flow {
	const mss = 1000
	isn := uint32(0xFFFFFB00)
	var recs []trace.Record
	add := func(tms int64, dir tcpsim.Dir, seg tcpsim.Segment) {
		recs = append(recs, trace.Record{T: msAt(tms), Dir: dir, Seg: seg})
	}
	add(0, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagSYN, Seq: 42, Wnd: 60000})
	add(10, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: isn, Ack: 43, Wnd: 65535})
	add(110, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1, Wnd: 60000})
	for i := uint32(0); i < 6; i++ {
		add(200+60*int64(i), tcpsim.DirOut,
			tcpsim.Segment{Flags: packet.FlagACK, Seq: isn + 1 + i*mss, Len: mss, Wnd: 65535})
		if i < 5 {
			add(230+60*int64(i), tcpsim.DirIn,
				tcpsim.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1 + (i+1)*mss, Wnd: 60000})
		}
	}
	// Five seconds of silence with one segment outstanding, closed by
	// its timeout retransmission (below the send edge, past the wrap).
	add(5500, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: isn + 1 + 5*mss, Len: mss, Wnd: 65535})
	add(5530, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1 + 6*mss, Wnd: 60000})
	add(5600, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: isn + 1 + 6*mss, Len: mss, Wnd: 65535})
	add(5630, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1 + 7*mss, Wnd: 60000})
	return &trace.Flow{ID: "wrap", Service: "crafted", Records: recs}
}

func TestTriageWrappedISNMatchesBatch(t *testing.T) {
	f := wrappedStallFlow()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	onFlow, got, mu := collector(t)
	m := New(Config{Shards: 1, Clock: clk.Now, Triage: &triage.Config{}, OnFlow: onFlow})
	feedFlowsDirect(t, m, []*trace.Flow{f})

	mu.Lock()
	defer mu.Unlock()
	c, ok := got[f.ID]
	if !ok {
		t.Fatal("flow never evicted")
	}
	if !assertTriageEquiv(t, f, c) {
		t.Fatal("wrapped-ISN flow did not take the promoted byte-identical path")
	}
	if len(c.a.Stalls) == 0 {
		t.Fatal("wrapped-ISN flow found no stall; the scenario is broken")
	}
}

// churnFlow builds a deliberately oscillating flow: bursts of healthy
// paced transfer long enough to demote a promoted flow (under a small
// DemoteAfter), separated by multi-second silences that each close a
// stall and repromote it.
func churnFlow(cycles int) *trace.Flow {
	const mss = 1460
	var recs []trace.Record
	add := func(tms int64, dir tcpsim.Dir, seg tcpsim.Segment) {
		recs = append(recs, trace.Record{T: msAt(tms), Dir: dir, Seg: seg})
	}
	add(0, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagSYN, Seq: 100, Wnd: 60000})
	add(10, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: 5000, Ack: 101, Wnd: 65535})
	add(110, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: 5001, Wnd: 60000})
	seq := uint32(5001)
	tms := int64(200)
	for c := 0; c < cycles; c++ {
		if c > 0 {
			tms += 3000 // a stall under any RTT estimate
		}
		// Healthy burst: a data/ack pair every 50ms for 1.2s, each ACK
		// advancing the edge — long enough to outlast DemoteAfter.
		for i := 0; i < 24; i++ {
			add(tms, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: seq, Len: mss, Wnd: 65535})
			seq += mss
			add(tms+25, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: seq, Wnd: 60000})
			tms += 50
		}
	}
	return &trace.Flow{ID: "churn", Service: "crafted", Records: recs}
}

// TestTriageChurnMatchesAlwaysOn oscillates one flow through
// promote → demote → repromote cycles with an aggressively small
// DemoteAfter and requires the final verdict to stay byte-identical
// to the batch analyzer — demotion parks state, it never loses it.
func TestTriageChurnMatchesAlwaysOn(t *testing.T) {
	f := churnFlow(6)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	onFlow, got, mu := collector(t)
	m := New(Config{Shards: 1, Clock: clk.Now,
		Triage: &triage.Config{DemoteAfter: 500 * time.Millisecond},
		OnFlow: onFlow})
	feedFlowsDirect(t, m, []*trace.Flow{f})

	mu.Lock()
	c, ok := got[f.ID]
	mu.Unlock()
	if !ok {
		t.Fatal("flow never evicted")
	}
	if !assertTriageEquiv(t, f, c) {
		t.Fatal("churning flow did not stay byte-identical to batch")
	}
	if want := 5; len(c.a.Stalls) != want {
		t.Errorf("stall count = %d, want %d", len(c.a.Stalls), want)
	}
	s := m.Snapshot()
	if s.TriageDemotions < 2 {
		t.Errorf("TriageDemotions = %d, want >= 2 (flow never oscillated)", s.TriageDemotions)
	}
	if s.TriageRepromotions < 2 {
		t.Errorf("TriageRepromotions = %d, want >= 2 (flow never oscillated)", s.TriageRepromotions)
	}
}

// TestTriageChurnGolden replays the golden captures with the same
// aggressive DemoteAfter: even when every quiet spell demotes, the
// output is pinned to the batch analyzer's bytes.
func TestTriageChurnGolden(t *testing.T) {
	for _, name := range []string{"golden_server", "golden_client", "golden_network"} {
		flows := loadGoldenPcap(t, name)
		clk := &fakeClock{now: time.Unix(1000, 0)}
		onFlow, got, mu := collector(t)
		m := New(Config{Shards: 1, Clock: clk.Now,
			Triage: &triage.Config{DemoteAfter: 100 * time.Millisecond},
			OnFlow: onFlow})
		feedFlowsDirect(t, m, flows)

		mu.Lock()
		for _, f := range flows {
			c, ok := got[f.ID]
			if !ok {
				t.Fatalf("%s: flow %s never evicted", name, f.ID)
			}
			assertTriageEquiv(t, f, c)
		}
		mu.Unlock()
	}
}

// TestTriageEvictionFlushesPendingStall evicts a stalling, churning
// flow at every possible record index and requires the flushed
// verdict to match the batch analyzer over the same prefix — in
// particular a promoted (or parked-with-unfed-records) flow evicted
// mid-stall must flush the pending stall instead of dropping it.
func TestTriageEvictionFlushesPendingStall(t *testing.T) {
	full := churnFlow(3)
	recs := full.Records
	maxStalls := 0
	for i := 1; i <= len(recs); i++ {
		prefix := &trace.Flow{ID: full.ID, Service: full.Service, Records: recs[:i]}
		clk := &fakeClock{now: time.Unix(1000, 0)}
		onFlow, got, mu := collector(t)
		m := New(Config{Shards: 1, Clock: clk.Now,
			Triage: &triage.Config{DemoteAfter: 500 * time.Millisecond},
			OnFlow: onFlow})
		for _, ev := range events(prefix) {
			feedDirect(m, ev)
		}
		m.SweepIdleNow(t)

		mu.Lock()
		c, ok := got[prefix.ID]
		mu.Unlock()
		if !ok {
			t.Fatalf("prefix %d: flow never evicted", i)
		}
		batch := core.Analyze(prefix, core.Config{})
		if len(c.a.Stalls) != len(batch.Stalls) {
			t.Fatalf("prefix %d: eviction flushed %d stalls, batch found %d",
				i, len(c.a.Stalls), len(batch.Stalls))
		}
		assertTriageEquiv(t, prefix, c)
		if len(batch.Stalls) > maxStalls {
			maxStalls = len(batch.Stalls)
		}
	}
	if maxStalls < 2 {
		t.Fatalf("scenario too weak: max stalls over prefixes = %d, want >= 2", maxStalls)
	}
}

// truncationFlow runs long enough healthy traffic that a small triage
// ring has overwritten the flow's early records before the first
// symptom fires.
func truncationFlow() *trace.Flow {
	const mss = 1460
	var recs []trace.Record
	add := func(tms int64, dir tcpsim.Dir, seg tcpsim.Segment) {
		recs = append(recs, trace.Record{T: msAt(tms), Dir: dir, Seg: seg})
	}
	add(0, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagSYN, Seq: 100, Wnd: 60000})
	add(10, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: 5000, Ack: 101, Wnd: 65535})
	add(110, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: 5001, Wnd: 60000})
	seq := uint32(5001)
	tms := int64(200)
	for i := 0; i < 30; i++ {
		add(tms, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: seq, Len: mss, Wnd: 65535})
		seq += mss
		add(tms+25, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: seq, Wnd: 60000})
		tms += 50
	}
	// Ten seconds of silence closed by the next send.
	tms += 10000
	add(tms, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: seq, Len: mss, Wnd: 65535})
	add(tms+30, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: seq + mss, Wnd: 60000})
	return &trace.Flow{ID: "trunc", Service: "crafted", Records: recs}
}

// TestTriageTruncatedPromotionMetric pins the conservative behaviour
// when symptom evidence predates the ring: promotion replays from the
// ring start, the event is counted in the truncated-promotions
// metric (snapshot and /metrics), and the stall's bounds still match
// the batch analyzer even though earlier context was lost.
func TestTriageTruncatedPromotionMetric(t *testing.T) {
	f := truncationFlow()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	onFlow, got, mu := collector(t)
	m := New(Config{Shards: 1, Clock: clk.Now,
		Triage: &triage.Config{RingCap: 8}, OnFlow: onFlow})
	for _, ev := range events(f) {
		feedDirect(m, ev)
	}

	s := m.Snapshot()
	if s.TriageTruncatedPromotions != 1 {
		t.Fatalf("TriageTruncatedPromotions = %d, want 1", s.TriageTruncatedPromotions)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), "tapod_triage_truncated_promotions_total 1") {
		t.Error("/metrics does not report tapod_triage_truncated_promotions_total 1")
	}

	m.SweepIdleNow(t)
	mu.Lock()
	c, ok := got[f.ID]
	mu.Unlock()
	if !ok {
		t.Fatal("flow never evicted")
	}
	batch := core.Analyze(f, core.Config{})
	if len(batch.Stalls) != 1 {
		t.Fatalf("batch stalls = %d, want 1", len(batch.Stalls))
	}
	if len(c.a.Stalls) != 1 {
		t.Fatalf("truncated promotion lost the stall: live stalls = %d, want 1", len(c.a.Stalls))
	}
	lv, bt := c.a.Stalls[0], batch.Stalls[0]
	if lv.Start != bt.Start || lv.End != bt.End {
		t.Errorf("stall bounds diverge after truncation: live [%v, %v] batch [%v, %v]",
			lv.Start, lv.End, bt.Start, bt.End)
	}
	// The cause may legitimately differ — the evidence before the
	// ring is gone. That accuracy cost is bounded by
	// TestTriageTruncationAccuracyBound.
	t.Logf("truncated stall cause: live=%v batch=%v", lv.Cause, bt.Cause)
}

// TestTriageTruncationAccuracyBound quantifies the classification
// cost of truncated promotions: with a deliberately small ring (64 records), graded
// against simulator ground truth, triaged accuracy must stay within
// 0.25 of the batch analyzer's on the same flows.
func TestTriageTruncationAccuracyBound(t *testing.T) {
	var flows []*trace.Flow
	var truths []*groundtruth.FlowTruth
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 7, workload.GenOptions{Flows: 12, WithTruth: true}) {
			if len(fr.Flow.Records) > 0 && fr.Truth != nil {
				flows = append(flows, fr.Flow)
				truths = append(truths, fr.Truth)
			}
		}
	}
	batchRep := groundtruth.Validate(flows, truths, core.DefaultConfig())

	clk := &fakeClock{now: time.Unix(1000, 0)}
	onFlow, got, mu := collector(t)
	m := New(Config{Shards: 1, MaxFlows: 4096, Clock: clk.Now,
		Triage: &triage.Config{RingCap: 64}, OnFlow: onFlow})
	feedFlowsDirect(t, m, flows)

	s := m.Snapshot()
	if s.TriageTruncatedPromotions == 0 {
		t.Fatal("small ring produced no truncated promotions; the bound is vacuous")
	}
	liveRep := groundtruth.NewReport()
	mu.Lock()
	for i, f := range flows {
		c, ok := got[f.ID]
		if !ok {
			t.Fatalf("flow %s never evicted", f.ID)
		}
		liveRep.AddFlow(f, truths[i], c.a, nil)
	}
	mu.Unlock()

	t.Logf("accuracy: batch=%.3f triaged(ring=64)=%.3f truncated_promotions=%d graded_stalls=%d/%d",
		batchRep.Accuracy(), liveRep.Accuracy(), s.TriageTruncatedPromotions,
		liveRep.Stalls, batchRep.Stalls)
	if liveRep.Accuracy() < batchRep.Accuracy()-0.25 {
		t.Errorf("triaged accuracy %.3f fell more than 0.25 below batch %.3f",
			liveRep.Accuracy(), batchRep.Accuracy())
	}
}

// --- FuzzTriagePromotion -------------------------------------------
//
// The wire format mirrors core.FuzzIncrementalFeed so corpus entries
// stress both analyzers the same way: 14 bytes per record (control,
// seq, ack, wnd, len code, time delta), +8 bytes for one SACK block
// when bit 6 of the control byte is set.

const fuzzRecSize = 14

func decodeFuzzRecords(data []byte) []trace.Record {
	var recs []trace.Record
	var tt sim.Time
	for len(data) >= fuzzRecSize && len(recs) < 4096 {
		ctl := data[0]
		dir := tcpsim.DirOut
		if ctl&1 != 0 {
			dir = tcpsim.DirIn
		}
		var flags packet.TCPFlags
		if ctl&2 != 0 {
			flags |= packet.FlagSYN
		}
		if ctl&4 != 0 {
			flags |= packet.FlagACK
		}
		if ctl&8 != 0 {
			flags |= packet.FlagFIN
		}
		if ctl&16 != 0 {
			flags |= packet.FlagRST
		}
		if ctl&32 != 0 {
			flags |= packet.FlagPSH
		}
		seg := tcpsim.Segment{
			Flags: flags,
			Seq:   binary.LittleEndian.Uint32(data[1:5]),
			Ack:   binary.LittleEndian.Uint32(data[5:9]),
			Wnd:   int(binary.LittleEndian.Uint16(data[9:11])),
			Len:   int(data[11]) * 97,
		}
		dt := binary.LittleEndian.Uint16(data[12:14])
		data = data[fuzzRecSize:]
		if ctl&64 != 0 && len(data) >= 8 {
			s := binary.LittleEndian.Uint32(data[0:4])
			e := binary.LittleEndian.Uint32(data[4:8])
			seg.SACK = packet.SACKBlocks(packet.SACKBlock{Left: s, Right: e})
			data = data[8:]
		}
		tt += sim.Time(dt) * sim.Time(time.Millisecond)
		recs = append(recs, trace.Record{T: tt, Dir: dir, Seg: seg})
	}
	return recs
}

func encodeFuzzRecord(dir tcpsim.Dir, flags packet.TCPFlags, seq, ack uint32, wnd, lenCode int, dtMS uint16) []byte {
	b := make([]byte, fuzzRecSize)
	if dir == tcpsim.DirIn {
		b[0] |= 1
	}
	if flags.Has(packet.FlagSYN) {
		b[0] |= 2
	}
	if flags.Has(packet.FlagACK) {
		b[0] |= 4
	}
	if flags.Has(packet.FlagFIN) {
		b[0] |= 8
	}
	if flags.Has(packet.FlagRST) {
		b[0] |= 16
	}
	binary.LittleEndian.PutUint32(b[1:5], seq)
	binary.LittleEndian.PutUint32(b[5:9], ack)
	binary.LittleEndian.PutUint16(b[9:11], uint16(wnd))
	b[11] = byte(lenCode)
	binary.LittleEndian.PutUint16(b[12:14], dtMS)
	return b
}

// fuzzSeedHealthyRun appends n healthy data/ack pairs, each ACK
// advancing, paced at dtMS — below any gap threshold the handshake
// seeds, so no symptom fires during the run.
func fuzzSeedHealthyRun(b []byte, seq *uint32, n int, dtMS uint16) []byte {
	for i := 0; i < n; i++ {
		b = append(b, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, *seq, 101, 65535, 10, dtMS)...)
		*seq += 970
		b = append(b, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, *seq, 60000, 0, dtMS)...)
	}
	return b
}

// fuzzSeedHandshake is a SYN / SYN-ACK / ACK preamble seeding a 30ms
// RTT on both paths.
func fuzzSeedHandshake() []byte {
	var b []byte
	b = append(b, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 100, 0, 60000, 0, 0)...)
	b = append(b, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	b = append(b, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, 5001, 60000, 0, 30)...)
	return b
}

// FuzzTriagePromotion hammers the promotion boundary: arbitrary record
// streams go through a triage-enabled monitor shard (ring large
// enough that promotion never truncates) and the evicted verdict must
// match the batch analyzer over exactly the records the monitor
// consumed — byte-identical when promoted, zero-stall when not.
func FuzzTriagePromotion(f *testing.F) {
	// Seed: plausible handshake + response with promoting gaps.
	var normal []byte
	normal = append(normal, fuzzSeedHandshake()...)
	for i := 0; i < 6; i++ {
		normal = append(normal, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, uint16(20+400*(i%2)))...)
	}
	f.Add(normal)

	// Seed: ISN near 2^32 so the stream wraps mid-flow.
	var wrapped []byte
	wrapISN := uint32(0xFFFFF000)
	wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 7, 0, 60000, 0, 0)...)
	wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, wrapISN, 8, 65535, 0, 1)...)
	for i := 0; i < 8; i++ {
		wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, wrapISN+1+uint32(i)*1455, 8, 65535, 15, uint16(25+700*(i%3/2)))...)
		wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 8, wrapISN+1+uint32(i+1)*1455, 60000, 0, 5)...)
	}
	f.Add(wrapped)

	// Seed: wrapped ISN + clock skew, SACK blocks straddling the wrap.
	var skew []byte
	skewISN := uint32(0xFFFFFB00)
	skew = append(skew, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 42, 0, 60000, 0, 0)...)
	skew = append(skew, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, skewISN, 43, 65535, 0, 1)...)
	for i := 0; i < 6; i++ {
		dt := uint16(1)
		if i%2 == 1 {
			dt = 65000
		}
		skew = append(skew, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, skewISN+1+uint32(i)*1455, 43, 65535, 15, dt)...)
		ackRec := encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 43, skewISN+1, 60000, 0, 1)
		ackRec[0] |= 64
		var blk [8]byte
		binary.LittleEndian.PutUint32(blk[0:4], skewISN+1+uint32(i)*1455)
		binary.LittleEndian.PutUint32(blk[4:8], skewISN+1+uint32(i+1)*1455)
		skew = append(skew, ackRec...)
		skew = append(skew, blk[:]...)
	}
	f.Add(skew)

	// Seed: the symptom is the very first record (incoming zero
	// window) — promotion with a single-record ring.
	first := encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 43, 5001, 0, 0, 0)
	f.Add(first)

	// Seed: symptom exactly at a ring-growth edge — 33 healthy pairs
	// cross the 8→16→32→64 doubling boundaries, then a promoting gap.
	var edge []byte
	edge = append(edge, fuzzSeedHandshake()...)
	seq := uint32(5001)
	edge = fuzzSeedHealthyRun(edge, &seq, 33, 10)
	edge = append(edge, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, seq, 101, 65535, 10, 5000)...)
	f.Add(edge)

	// Seed: demote-then-repromote — promote on a gap, stay healthy
	// past DemoteAfter (2s) so the flow parks, then stall again.
	var churn []byte
	churn = append(churn, fuzzSeedHandshake()...)
	seq = uint32(5001)
	churn = fuzzSeedHealthyRun(churn, &seq, 4, 10)
	churn = append(churn, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, seq, 101, 65535, 10, 3000)...)
	seq += 970
	churn = fuzzSeedHealthyRun(churn, &seq, 50, 50) // 2.5s of health: demotes
	churn = append(churn, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, seq, 101, 65535, 10, 5000)...)
	f.Add(churn)

	// Seed: hostile — retransmission-shaped repeat plus RST teardown
	// mid-stream (the monitor evicts on the RST; remaining bytes are
	// a second life the harness ignores).
	var hostile []byte
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 1000, 1, 0, 20, 0)...)
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 1000, 1, 0, 20, 9000)...)
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirIn, packet.FlagRST, 1, 0, 0, 0, 1)...)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFuzzRecords(data)
		if len(recs) == 0 {
			return
		}
		clk := &fakeClock{now: time.Unix(1000, 0)}
		var got []*core.FlowAnalysis
		m := New(Config{Shards: 1, Clock: clk.Now,
			Triage: &triage.Config{RingCap: 4096},
			OnFlow: func(reason string, a *core.FlowAnalysis) { got = append(got, a) }})
		sh := m.shardOf("fuzz")
		fed := 0
		for i := range recs {
			ev := trace.RecordEvent{FlowID: "fuzz", Service: "fuzz", Rec: recs[i]}
			sh.processBatch([]trace.RecordEvent{ev})
			fed = i + 1
			if len(got) > 0 {
				// Teardown evicted the flow mid-stream; grade the
				// consumed prefix and ignore the remainder.
				break
			}
		}
		if len(got) == 0 {
			m.SweepIdleNow(t)
		}
		if len(got) != 1 {
			t.Fatalf("eviction produced %d analyses, want 1", len(got))
		}
		a := got[0]
		flow := &trace.Flow{ID: "fuzz", Service: "fuzz", Records: recs[:fed]}
		batch := core.Analyze(flow, core.Config{})
		want, err := core.MarshalAnalyses([]*core.FlowAnalysis{batch})
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(gotB, want) {
			return
		}
		if len(batch.Stalls) != 0 {
			t.Fatalf("batch found %d stalls but triaged output differs\nlive:  %s\nbatch: %s",
				len(batch.Stalls), gotB, want)
		}
		if len(a.Stalls) != 0 {
			t.Fatalf("triaged path invented %d stalls on a stall-free input", len(a.Stalls))
		}
		if a.DataPackets != batch.DataPackets || a.DataBytes != batch.DataBytes ||
			a.TransmissionTime != batch.TransmissionTime {
			t.Fatalf("synthesized summary diverges: packets %d/%d bytes %d/%d span %v/%v",
				a.DataPackets, batch.DataPackets, a.DataBytes, batch.DataBytes,
				a.TransmissionTime, batch.TransmissionTime)
		}
	})
}
