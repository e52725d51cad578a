package live

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

// fakeClock is an injectable wall clock for deterministic sweeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// events converts a generated flow into its ingest event sequence.
func events(f *trace.Flow) []trace.RecordEvent {
	out := make([]trace.RecordEvent, len(f.Records))
	for i := range f.Records {
		out[i] = trace.RecordEvent{
			FlowID:   f.ID,
			Service:  f.Service,
			MSS:      f.MSS,
			InitRwnd: f.InitRwnd,
			Rec:      f.Records[i],
		}
	}
	return out
}

// interleave merges the flows' event sequences round-robin — one
// record from each flow per round — so shard queues carry a realistic
// multi-flow mix.
func interleave(flows []*trace.Flow) []trace.RecordEvent {
	evs := make([][]trace.RecordEvent, len(flows))
	for i, f := range flows {
		evs[i] = events(f)
	}
	var all []trace.RecordEvent
	for round := 0; ; round++ {
		fed := false
		for i := range evs {
			if round < len(evs[i]) {
				all = append(all, evs[i][round])
				fed = true
			}
		}
		if !fed {
			return all
		}
	}
}

// chunkSizes are the intake batch sizes every live≡batch equivalence
// test runs at: the batch of one a paced source hands over, a size
// unaligned with everything, the replay chunk, and (0) the whole
// stream in one call.
var chunkSizes = []int{1, 7, 512, 0}

// chunkRun is what one pass over an input at one chunk size produced:
// every eviction per flow ID in order, and the final counters.
type chunkRun struct {
	evicted map[string][]capture
	snap    Snapshot
}

// runChunked pushes all through a running four-shard monitor in
// IngestBatchWait calls of chunk records and closes it.
func runChunked(t *testing.T, cfg Config, all []trace.RecordEvent, chunk int) chunkRun {
	t.Helper()
	var mu sync.Mutex
	r := chunkRun{evicted: map[string][]capture{}}
	cfg.Shards, cfg.MaxFlows = 4, 4096
	cfg.OnFlow = func(reason string, a *core.FlowAnalysis, _ *flight.Recorder) {
		b, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
		if err != nil {
			t.Errorf("marshal %s: %v", a.FlowID, err)
			return
		}
		mu.Lock()
		r.evicted[a.FlowID] = append(r.evicted[a.FlowID], capture{a: a, b: b})
		mu.Unlock()
	}
	m := New(cfg)
	m.Start()
	if chunk <= 0 {
		chunk = len(all)
	}
	for i := 0; i < len(all); i += chunk {
		end := i + chunk
		if end > len(all) {
			end = len(all)
		}
		if !m.IngestBatchWait(all[i:end]) {
			t.Fatal("IngestBatchWait refused while open")
		}
	}
	m.Close()
	r.snap = m.Snapshot()
	if r.snap.RingDrops != 0 {
		t.Errorf("IngestBatchWait dropped %d records", r.snap.RingDrops)
	}
	return r
}

// forEachChunkSize runs the input at every chunk size, hands each run
// to check, and requires what must not depend on how the source cut
// its batches — every flow's evictions byte for byte, and the feed
// counters — to be identical across sizes.
func forEachChunkSize(t *testing.T, cfg Config, all []trace.RecordEvent, check func(*testing.T, chunkRun)) {
	var base *chunkRun
	for _, n := range chunkSizes {
		name := fmt.Sprintf("chunk_%d", n)
		if n == 0 {
			name = "chunk_all"
		}
		t.Run(name, func(t *testing.T) {
			r := runChunked(t, cfg, all, n)
			check(t, r)
			if base == nil {
				base = &r
				return
			}
			if len(r.evicted) != len(base.evicted) {
				t.Errorf("%d flow IDs evicted, chunk_%d evicted %d", len(r.evicted), chunkSizes[0], len(base.evicted))
			}
			for id, want := range base.evicted {
				got := r.evicted[id]
				if len(got) != len(want) {
					t.Errorf("flow %s evicted %d times, want %d", id, len(got), len(want))
					continue
				}
				for k := range want {
					if !bytes.Equal(got[k].b, want[k].b) {
						t.Errorf("flow %s eviction %d depends on chunk size\ngot:  %s\nwant: %s", id, k, got[k].b, want[k].b)
					}
				}
			}
			g, w := r.snap, base.snap
			if g.RecordsFed != w.RecordsFed || g.RecordsCapDrop != w.RecordsCapDrop ||
				g.TriageFastRecords != w.TriageFastRecords || !reflect.DeepEqual(g.TriagePromotions, w.TriagePromotions) {
				t.Errorf("counters depend on chunk size: fed %d/%d cap-drop %d/%d fast %d/%d promotions %v/%v",
					g.RecordsFed, w.RecordsFed, g.RecordsCapDrop, w.RecordsCapDrop,
					g.TriageFastRecords, w.TriageFastRecords, g.TriagePromotions, w.TriagePromotions)
			}
		})
	}
}

// edgeInput is the input for the boundary cases of the feed loop: a
// few interleaved generated flows, then — contiguous, so whole-stream
// intake sees each as one long same-flow run — a full generated flow
// and a hand-built connection that stalls, tears down by FIN/FIN/ACK
// and reconnects under the same flow ID.
func edgeInput(t *testing.T) []trace.RecordEvent {
	t.Helper()
	var flows []*trace.Flow
	for _, fr := range workload.Generate(workload.Services()[2], 5, workload.GenOptions{Flows: 5}) {
		if len(fr.Flow.Records) > 0 {
			flows = append(flows, fr.Flow)
		}
	}
	if len(flows) < 2 {
		t.Fatalf("generated only %d usable flows", len(flows))
	}
	solo := flows[len(flows)-1]
	all := append(interleave(flows[:len(flows)-1]), events(solo)...)
	for life := 0; life < 2; life++ {
		isn := uint32(7000 + 100000*life)
		add := func(tms int64, dir trace.Dir, seg trace.Segment) {
			all = append(all, trace.RecordEvent{FlowID: "reconnect", Service: "edge", MSS: 1000,
				Rec: trace.Record{T: msAt(tms), Dir: dir, Seg: seg}})
		}
		add(0, trace.DirIn, trace.Segment{Flags: packet.FlagSYN, Seq: 42, Wnd: 60000})
		add(10, trace.DirOut, trace.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: isn, Ack: 43, Wnd: 65535})
		add(20, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1, Wnd: 60000})
		at := int64(30)
		for i := uint32(0); i < 8; i++ {
			if i == 5 {
				at += 900 // the last segments leave after a stall
			}
			add(at, trace.DirOut, trace.Segment{Flags: packet.FlagACK, Seq: isn + 1 + i*1000, Len: 1000, Wnd: 65535})
			add(at+10, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Seq: 43, Ack: isn + 1 + (i+1)*1000, Wnd: 60000})
			at += 20
		}
		add(at, trace.DirOut, trace.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: isn + 8001, Ack: 43, Wnd: 65535})
		add(at+10, trace.DirIn, trace.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: 43, Ack: isn + 8002, Wnd: 60000})
		add(at+20, trace.DirOut, trace.Segment{Flags: packet.FlagACK, Seq: isn + 8002, Ack: 44, Wnd: 65535})
		all[len(all)-1].FlowDone = true // the closing ACK, as the importer marks it
	}
	return all
}

// checkEdgeCases runs the feed loop's boundary cases at every chunk
// size under cfg (always-on or triage): a per-flow record cap small
// enough to cut flows mid-run, and a teardown mid-run followed by a
// reconnect on the same flow ID.
func checkEdgeCases(t *testing.T, cfg Config) {
	all := edgeInput(t)
	t.Run("record_cap", func(t *testing.T) {
		capped := cfg
		capped.MaxRecordsPerFlow = 25
		forEachChunkSize(t, capped, all, func(t *testing.T, r chunkRun) {
			if r.snap.RecordsCapDrop == 0 || r.snap.FlowsTruncated == 0 {
				t.Errorf("cap never engaged: cap drops %d, truncated flows %d", r.snap.RecordsCapDrop, r.snap.FlowsTruncated)
			}
		})
	})
	t.Run("reconnect", func(t *testing.T) {
		forEachChunkSize(t, cfg, all, func(t *testing.T, r chunkRun) {
			lives := r.evicted["reconnect"]
			if len(lives) != 2 {
				t.Fatalf("reconnecting flow evicted %d times, want 2 (teardown, then its second life)", len(lives))
			}
			for k, c := range lives {
				if len(c.a.Stalls) == 0 {
					t.Errorf("life %d lost its stall", k)
				}
			}
			if got := r.snap.FlowsEvicted[EvictDone]; got < 2 {
				t.Errorf("done evictions = %d, want >= 2", got)
			}
		})
	})
}

// TestMonitorMatchesBatch is the subsystem's equivalence guarantee:
// flows from every service model, their records interleaved
// round-robin across flows and pushed through the concurrent shard
// workers, must come out of eviction with FlowAnalysis JSON
// byte-identical to the batch analyzer's — however the source cut the
// stream into intake batches. Run under -race this also guards the
// shard locking.
func TestMonitorMatchesBatch(t *testing.T) {
	var flows []*trace.Flow
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 7, workload.GenOptions{Flows: 8}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	if len(flows) < 20 {
		t.Fatalf("generated only %d usable flows", len(flows))
	}
	want := map[string][]byte{}
	for _, f := range flows {
		b, err := core.MarshalAnalyses([]*core.FlowAnalysis{core.Analyze(f, core.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		want[f.ID] = b
	}

	t.Run("generated", func(t *testing.T) {
		forEachChunkSize(t, Config{}, interleave(flows), func(t *testing.T, r chunkRun) {
			for _, f := range flows {
				g := r.evicted[f.ID]
				if len(g) != 1 {
					t.Fatalf("flow %s evicted %d times, want once", f.ID, len(g))
				}
				if !bytes.Equal(g[0].b, want[f.ID]) {
					t.Errorf("flow %s: live analysis differs from batch\nlive:  %s\nbatch: %s", f.ID, g[0].b, want[f.ID])
				}
			}
			if int(r.snap.FlowsSeen) != len(flows) {
				t.Errorf("FlowsSeen = %d, want %d", r.snap.FlowsSeen, len(flows))
			}
		})
	})
	checkEdgeCases(t, Config{})
}

// dataEvent builds a minimal outgoing data record event.
func dataEvent(id string, at sim.Time, seq uint32, n int) trace.RecordEvent {
	return trace.RecordEvent{
		FlowID: id,
		Rec: trace.Record{
			T:   at,
			Dir: trace.DirOut,
			Seg: trace.Segment{Flags: packet.FlagACK, Seq: seq, Len: n, Wnd: 65535},
		},
	}
}

// feedDirect pushes an event through its shard synchronously (monitor
// not started), keeping the test deterministic.
func feedDirect(m *Monitor, ev trace.RecordEvent) {
	m.shardOf(ev.FlowID).processBatch([]trace.RecordEvent{ev})
}

func TestLRUEviction(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var evicted []string
	m := New(Config{
		Shards:   1,
		MaxFlows: 3,
		Clock:    clk.Now,
		OnFlow: func(reason string, a *core.FlowAnalysis, _ *flight.Recorder) {
			if reason == EvictLRU {
				evicted = append(evicted, a.FlowID)
			}
		},
	})
	for i, id := range []string{"a", "b", "c"} {
		feedDirect(m, dataEvent(id, sim.Time(i)*sim.Time(time.Millisecond), 1000, 1460))
	}
	// Touch "a" so "b" is now least recently active.
	feedDirect(m, dataEvent("a", sim.Time(10*time.Millisecond), 2460, 1460))
	feedDirect(m, dataEvent("d", sim.Time(11*time.Millisecond), 1000, 1460))

	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("LRU evicted %v, want [b]", evicted)
	}
	s := m.Snapshot()
	if s.ActiveFlows != 3 {
		t.Errorf("ActiveFlows = %d, want 3", s.ActiveFlows)
	}
	if s.FlowsEvicted[EvictLRU] != 1 {
		t.Errorf("lru evictions = %d, want 1", s.FlowsEvicted[EvictLRU])
	}
}

// TestRecordCapTruncates feeds nine records to one flow under a cap
// of 5, which keeps five and truncates the flow, and under -1, which
// disables the cap.
func TestRecordCapTruncates(t *testing.T) {
	for _, tc := range []struct {
		limit, fed, dropped int
		truncated           bool
	}{
		{limit: 5, fed: 5, dropped: 4, truncated: true},
		{limit: -1, fed: 9, dropped: 0, truncated: false},
	} {
		t.Run(fmt.Sprintf("cap=%d", tc.limit), func(t *testing.T) {
			clk := &fakeClock{now: time.Unix(1000, 0)}
			m := New(Config{Shards: 1, MaxRecordsPerFlow: tc.limit, Clock: clk.Now})
			for i := 0; i < 9; i++ {
				feedDirect(m, dataEvent("f", sim.Time(i)*sim.Time(time.Millisecond), 1000+uint32(i)*1460, 1460))
			}
			s := m.Snapshot()
			if s.RecordsFed != uint64(tc.fed) {
				t.Errorf("RecordsFed = %d, want %d", s.RecordsFed, tc.fed)
			}
			if s.RecordsCapDrop != uint64(tc.dropped) {
				t.Errorf("RecordsCapDrop = %d, want %d", s.RecordsCapDrop, tc.dropped)
			}
			for _, fi := range m.Flows() {
				if fi.Truncated != tc.truncated {
					t.Errorf("flow %s truncated = %v, want %v", fi.ID, fi.Truncated, tc.truncated)
				}
				if fi.Records != tc.fed {
					t.Errorf("flow %s retained %d records, want %d", fi.ID, fi.Records, tc.fed)
				}
			}
			// Truncation is surfaced again at eviction.
			m.SweepIdleNow(t)
			want := uint64(0)
			if tc.truncated {
				want = 1
			}
			if got := m.Snapshot().FlowsTruncated; got != want {
				t.Errorf("FlowsTruncated = %d, want %d", got, want)
			}
		})
	}
}

// SweepIdleNow forces every flow out via the idle path regardless of
// configured timeout (test helper).
func (m *Monitor) SweepIdleNow(t *testing.T) {
	t.Helper()
	for _, sh := range m.shards {
		sh.mu.Lock()
		for sh.lru.Len() > 0 {
			sh.evictLocked(sh.lru.Back().Value.(*flowEntry), EvictIdle)
		}
		sh.mu.Unlock()
	}
}

func TestIdleSweep(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m := New(Config{Shards: 1, IdleTimeout: time.Minute, Clock: clk.Now})
	feedDirect(m, dataEvent("old", 0, 1000, 1460))
	clk.Advance(45 * time.Second)
	feedDirect(m, dataEvent("fresh", sim.Time(time.Second), 1000, 1460))

	m.shards[0].sweepIdle()
	if got := m.Snapshot().ActiveFlows; got != 2 {
		t.Fatalf("premature idle eviction: ActiveFlows = %d, want 2", got)
	}

	clk.Advance(30 * time.Second) // "old" is 75s idle, "fresh" 30s
	m.shards[0].sweepIdle()
	s := m.Snapshot()
	if s.ActiveFlows != 1 {
		t.Fatalf("ActiveFlows = %d, want 1", s.ActiveFlows)
	}
	if s.FlowsEvicted[EvictIdle] != 1 {
		t.Errorf("idle evictions = %d, want 1", s.FlowsEvicted[EvictIdle])
	}
	if fl := m.Flows(); len(fl) != 1 || fl[0].ID != "fresh" {
		t.Errorf("surviving flows = %+v, want [fresh]", fl)
	}
}

func TestTeardownEvicts(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	reasons := map[string]string{}
	m := New(Config{Shards: 1, Clock: clk.Now,
		OnFlow: func(reason string, a *core.FlowAnalysis, _ *flight.Recorder) { reasons[a.FlowID] = reason }})

	// FlowDone evicts at once.
	feedDirect(m, dataEvent("rst", 0, 1000, 1460))
	rst := trace.RecordEvent{FlowID: "rst", FlowDone: true, Rec: trace.Record{
		T: sim.Time(time.Millisecond), Dir: trace.DirIn,
		Seg: trace.Segment{Flags: packet.FlagRST, Seq: 5000},
	}}
	feedDirect(m, rst)
	if reasons["rst"] != EvictDone {
		t.Fatalf("FlowDone eviction reason = %q, want %q", reasons["rst"], EvictDone)
	}

	// FINs both ways and the closing pure ACK evict nothing unless the
	// producer marks the ACK FlowDone: the monitor reads no teardown
	// from the flags itself.
	outFIN := trace.RecordEvent{FlowID: "fin", Rec: trace.Record{
		T: 0, Dir: trace.DirOut,
		Seg: trace.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: 2000},
	}}
	inFIN := trace.RecordEvent{FlowID: "fin", Rec: trace.Record{
		T: sim.Time(time.Millisecond), Dir: trace.DirIn,
		Seg: trace.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: 9000},
	}}
	lastAck := trace.RecordEvent{FlowID: "fin", Rec: trace.Record{
		T: sim.Time(2 * time.Millisecond), Dir: trace.DirOut,
		Seg: trace.Segment{Flags: packet.FlagACK, Seq: 2001, Ack: 9001},
	}}
	feedDirect(m, outFIN)
	feedDirect(m, inFIN)
	feedDirect(m, lastAck)
	if r, ok := reasons["fin"]; ok {
		t.Fatalf("evicted without FlowDone (reason %q)", r)
	}
	if got := m.Snapshot().ActiveFlows; got != 1 {
		t.Fatalf("ActiveFlows = %d without FlowDone, want 1", got)
	}
	lastAck.FlowDone = true
	feedDirect(m, lastAck)
	if reasons["fin"] != EvictDone {
		t.Fatalf("FIN eviction reason = %q, want %q", reasons["fin"], EvictDone)
	}
	if got := m.Snapshot().ActiveFlows; got != 0 {
		t.Errorf("ActiveFlows = %d after teardown, want 0", got)
	}
}

// TestRingFullDrops pins the shed-load contract: with the workers not
// started, a shard's queue fills deterministically and IngestBatch
// refuses — counting against the monitor and the shard, not blocking.
func TestRingFullDrops(t *testing.T) {
	m := New(Config{Shards: 1})
	for i := 0; i < shardQueueDepth; i++ {
		ev := dataEvent("f", sim.Time(i)*sim.Time(time.Millisecond), 1000+uint32(i)*1460, 1460)
		if m.IngestBatch([]trace.RecordEvent{ev}) != 1 {
			t.Fatalf("queue rejected batch %d, below capacity", i)
		}
	}
	over := []trace.RecordEvent{
		dataEvent("f", sim.Time(time.Second), 200000, 1460),
		dataEvent("g", sim.Time(time.Second), 1000, 1460),
	}
	if n := m.IngestBatch(over); n != 0 {
		t.Fatalf("full queue accepted %d records", n)
	}
	s := m.Snapshot()
	if s.Ingested != shardQueueDepth || s.RingDrops != 2 || s.ShardRingDrops[0] != 2 {
		t.Errorf("Ingested/RingDrops/ShardRingDrops[0] = %d/%d/%d, want %d/2/2",
			s.Ingested, s.RingDrops, s.ShardRingDrops[0], shardQueueDepth)
	}
	m.Start()
	m.Close()
	if !m.closed.Load() {
		t.Error("monitor did not close")
	}
	if got := m.Snapshot().RecordsFed; got != shardQueueDepth {
		t.Errorf("RecordsFed after Close = %d, want the %d queued", got, shardQueueDepth)
	}
	if m.IngestBatch(over) != 0 || m.IngestBatchWait(over) {
		t.Error("intake accepted records after Close")
	}
	s = m.Snapshot()
	if s.RingDrops != 6 || s.ShardRingDrops[0] != 2 {
		t.Errorf("after Close RingDrops/ShardRingDrops[0] = %d/%d, want 6/2 (refusals count against the monitor only)",
			s.RingDrops, s.ShardRingDrops[0])
	}
}

// TestBatchFreeListBounded backs up every shard queue, drains it, and
// checks that the intake free list keeps no more buffers than its
// per-shard bound: a drained backlog must not stay pinned.
func TestBatchFreeListBounded(t *testing.T) {
	m := New(Config{Shards: 2})
	// One flow per shard, so every intake call fills both queues.
	var ids [2]string
	for i := 0; ids[0] == "" || ids[1] == ""; i++ {
		id := fmt.Sprintf("f%d", i)
		if ids[m.shardIdx(id)] == "" {
			ids[m.shardIdx(id)] = id
		}
	}
	for i := 0; i < 2*shardQueueDepth; i++ {
		at := sim.Time(i) * sim.Time(time.Millisecond)
		m.IngestBatch([]trace.RecordEvent{
			dataEvent(ids[0], at, 1000+uint32(i)*1460, 1460),
			dataEvent(ids[1], at, 1000+uint32(i)*1460, 1460),
		})
	}
	if got := m.Snapshot().Ingested; got != 2*shardQueueDepth {
		t.Fatalf("Ingested = %d, want both queues full (%d)", got, 2*shardQueueDepth)
	}
	m.Start()
	m.Close()
	m.batchFree.mu.Lock()
	held := len(m.batchFree.free)
	m.batchFree.mu.Unlock()
	if bound := batchFreePerShard * 2; held == 0 || held > bound {
		t.Errorf("free list holds %d buffers after draining %d, want 1..%d",
			held, 2*shardQueueDepth, bound)
	}
}

// TestMonitorAllocsPerRecord is the always-on monitor's allocation
// budget: heap objects per record from Start through Close, counting
// batch intake, shard processing and eviction on every goroutine. The
// input is 25 generated flows per service at seed 11, handed over in
// replay-sized IngestBatchWait chunks. The steady state is about 0.1;
// the best of three runs must stay at or under 0.5.
func TestMonitorAllocsPerRecord(t *testing.T) {
	const chunk = 512
	var all []trace.RecordEvent
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 11, workload.GenOptions{Flows: 25}) {
			all = append(all, events(fr.Flow)...)
		}
	}
	best := -1.0
	for rep := 0; rep < 3; rep++ {
		m := New(Config{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Start()
		for i := 0; i < len(all); i += chunk {
			m.IngestBatchWait(all[i:min(i+chunk, len(all))])
		}
		m.Close()
		runtime.ReadMemStats(&after)
		if got := m.Snapshot().RecordsFed; got != uint64(len(all)) {
			t.Fatalf("fed %d of %d records", got, len(all))
		}
		perRec := float64(after.Mallocs-before.Mallocs) / float64(len(all))
		if best < 0 || perRec < best {
			best = perRec
		}
	}
	t.Logf("%d records, %.3f allocs/record", len(all), best)
	if best > 0.5 {
		t.Errorf("always-on monitor allocates %.3f objects per record, budget 0.5", best)
	}
}

// liveHeap reads the heap's live bytes after two collections.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// fitLine is the least-squares fit of y = a + b·x.
func fitLine(xs, ys []float64) (a, b float64) {
	var sx, sy, sxx, sxy float64
	for k, x := range xs {
		sx += x
		sy += ys[k]
		sxx += x * x
		sxy += x * ys[k]
	}
	c := float64(len(xs))
	b = (c*sxy - sx*sy) / (c*sxx - sx*sx)
	return (sy - b*sx) / c, b
}

// TestHeapSlopePerFlow is the per-flow memory budget as slopes, one
// per monitor mode. Each case holds N = 128, 512 and 1024 flows
// mid-flight (the first half of each flow's records fed) and fits the
// live heap against what grows with N.
//
// always_on: sick flows under full analysis with flight recorders;
// the fit is against N and gates the heap one more concurrent flow
// costs at 32 KB. The flows are 32 per service at seed 11, replayed
// under fresh IDs to reach N.
//
// no_flight: the same flows without recorders, so the slope is the
// analyzer's own per-flow state, gated at 6 KB. always_on's slope
// minus this one is what the flight recorder costs a flow, gated at
// 6 KB too.
//
// triage: workload.Healthy flows that never promote, so each holds
// only its fast-path state and its ring; the fit is against the
// records the rings retain and gates the heap one more retained
// record costs, per-flow state included, at 24 B. No flow repeats, so
// the mix of flow lengths is the generator's.
func TestHeapSlopePerFlow(t *testing.T) {
	ns := []int{128, 512, 1024}
	var pool []*trace.Flow
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 11, workload.GenOptions{Flows: 32}) {
			pool = append(pool, fr.Flow)
		}
	}
	// sickSlope fits the live heap of N mid-flight sick flows against
	// N and returns the slope in bytes per flow.
	sickSlope := func(t *testing.T, fcfg *flight.Config) float64 {
		xs := make([]float64, len(ns))
		heaps := make([]float64, len(ns))
		for k, n := range ns {
			before := liveHeap()
			m := New(Config{Shards: 1, Flight: fcfg})
			for i := 0; i < n; i++ {
				f := pool[i%len(pool)]
				evs := events(f)[:len(f.Records)/2]
				for j := range evs {
					evs[j].FlowID = fmt.Sprintf("%s#%d", f.ID, i)
				}
				m.shards[0].processBatch(evs)
			}
			if s := m.Snapshot(); s.ActiveFlows != n {
				t.Fatalf("N=%d: %d active flows, want all held", n, s.ActiveFlows)
			}
			xs[k], heaps[k] = float64(n), liveHeap()-before
			m.Close()
		}
		a, b := fitLine(xs, heaps)
		t.Logf("live heap %.0f / %.0f / %.0f KB at N = %v: a = %.0f KB, b = %.1f KB/flow",
			heaps[0]/1024, heaps[1]/1024, heaps[2]/1024, ns, a/1024, b/1024)
		return b
	}
	var withFlight float64
	t.Run("always_on", func(t *testing.T) {
		const budget = 32 << 10
		withFlight = sickSlope(t, &flight.Config{})
		if withFlight > budget {
			t.Errorf("each concurrent mid-flight flow holds %.1f KB of heap, budget %d KB", withFlight/1024, budget>>10)
		}
	})
	t.Run("no_flight", func(t *testing.T) {
		const budget = 6 << 10
		if withFlight == 0 {
			t.Skip("needs always_on's slope")
		}
		own := sickSlope(t, nil)
		if own > budget {
			t.Errorf("each concurrent mid-flight flow holds %.1f KB of analyzer heap, budget %d KB", own/1024, budget>>10)
		}
		share := withFlight - own
		t.Logf("flight share: %.1f KB/flow", share/1024)
		if share > budget {
			t.Errorf("the flight recorder costs each mid-flight flow %.1f KB of heap, budget %d KB", share/1024, budget>>10)
		}
	})
	t.Run("triage", func(t *testing.T) {
		const budget = 24
		ringCap := triage.Config{}.WithDefaults().RingCap
		// The services' flows taken in turn, so every N sees the same
		// mix; a flow whose fed half raises a symptom would promote
		// and is left out.
		var bySvc [][]*trace.Flow
		for _, svc := range workload.Services() {
			var fs []*trace.Flow
			for _, fr := range workload.Generate(workload.Healthy(svc), 11, workload.GenOptions{Flows: 350}) {
				fs = append(fs, fr.Flow)
			}
			bySvc = append(bySvc, fs)
		}
		var pool []*trace.Flow
		for i := range bySvc[0] {
			for _, fs := range bySvc {
				if i < len(fs) && quietHalf(fs[i]) {
					pool = append(pool, fs[i])
				}
			}
		}
		if len(pool) < ns[len(ns)-1] {
			t.Fatalf("%d quiet healthy flows, want %d", len(pool), ns[len(ns)-1])
		}
		xs := make([]float64, len(ns))
		heaps := make([]float64, len(ns))
		for k, n := range ns {
			before := liveHeap()
			m := New(Config{Shards: 1, Flight: &flight.Config{}, Triage: &triage.Config{}})
			retained := 0
			for i := 0; i < n; i++ {
				f := pool[i]
				evs := events(f)[:len(f.Records)/2]
				for j := range evs {
					evs[j].FlowID = fmt.Sprintf("%s#%d", f.ID, i)
				}
				m.shards[0].processBatch(evs)
				retained += min(len(evs), ringCap)
			}
			if s := m.Snapshot(); s.ActiveFlows != n || len(s.TriagePromotions) != 0 {
				t.Fatalf("N=%d: %d active flows, promotions %v; want all held, none promoted",
					n, s.ActiveFlows, s.TriagePromotions)
			}
			xs[k], heaps[k] = float64(retained), liveHeap()-before
			m.Close()
		}
		a, b := fitLine(xs, heaps)
		t.Logf("live heap %.0f / %.0f / %.0f KB at %v retained records (N = %v): a = %.0f KB, b = %.1f B/record",
			heaps[0]/1024, heaps[1]/1024, heaps[2]/1024, xs, ns, a/1024, b)
		if b > budget {
			t.Errorf("each retained record of a parked healthy flow holds %.1f B of heap, budget %d B", b, budget)
		}
	})
}

// quietHalf reports whether the first half of f's records goes
// through a fast path without raising a symptom.
func quietHalf(f *trace.Flow) bool {
	half := f.Records[:len(f.Records)/2]
	if len(half) == 0 {
		return false
	}
	tf := triage.NewFlow(triage.Config{})
	for i := range half {
		if sym, _, _ := tf.Observe(&half[i]); sym != triage.SymNone {
			return false
		}
	}
	return true
}

func TestShutdownFlushesAll(t *testing.T) {
	var mu sync.Mutex
	reasons := map[string]string{}
	m := New(Config{Shards: 2, OnFlow: func(reason string, a *core.FlowAnalysis, _ *flight.Recorder) {
		mu.Lock()
		reasons[a.FlowID] = reason
		mu.Unlock()
	}})
	m.Start()
	for _, id := range []string{"x", "y", "z"} {
		m.IngestBatchWait([]trace.RecordEvent{dataEvent(id, 0, 1000, 1460)})
	}
	m.Close()
	for _, id := range []string{"x", "y", "z"} {
		if reasons[id] != EvictShutdown {
			t.Errorf("flow %s eviction reason = %q, want %q", id, reasons[id], EvictShutdown)
		}
	}
	if got := m.Snapshot().ActiveFlows; got != 0 {
		t.Errorf("ActiveFlows after Close = %d, want 0", got)
	}
}
