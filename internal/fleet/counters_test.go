package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/workload"
)

// randCounters draws a valid Counters: sorted cells with non-zero
// counts, the live histogram layout, a summary built by Add.
func randCounters(rng *rand.Rand) Counters {
	n := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	c := Counters{
		Ingested: n(), RingDrops: n(), RecordsFed: n(), RecordCapDrops: n(),
		SampledOut: n(), FlowsSeen: n(), FlowsTruncated: n(), UnknownConfigKeys: n(),
		TriageFastRecords: n(), TriageRepromotions: n(), TriageDemotions: n(),
		TriageTruncatedPromotions: n(),
	}
	counts := func(keys ...string) map[string]uint64 {
		var m map[string]uint64
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				if m == nil {
					m = map[string]uint64{}
				}
				m[k] = 1 + n()
			}
		}
		return m
	}
	c.FlowsEvicted = counts("idle", "lru", "shutdown")
	c.TriagePromotions = counts("dupack", "gap", "rto")
	for _, svc := range []string{"cdn", "search", "storage"} {
		for _, cause := range []string{"data-unavailable", "pkt-delay", "zero-rwnd"} {
			if rng.Intn(2) == 0 {
				c.Stalls = append(c.Stalls, StallCounter{Service: svc, Cause: cause, Count: 1 + n(), Seconds: rng.Float64() * 100})
			}
		}
	}
	for _, sub := range []string{"double", "tail", "timeout"} {
		if rng.Intn(2) == 0 {
			c.Retrans = append(c.Retrans, RetransCounter{Subcause: sub, Count: 1 + n(), Seconds: rng.Float64() * 10})
		}
	}
	h := stats.NewHistogram(live.DurationBoundsMS)
	var s stats.Summary
	for i := rng.Intn(50); i > 0; i-- {
		h.Add(rng.Float64() * 5000)
		s.Add(float64(1 + rng.Intn(512)))
	}
	c.DurationsMS, c.IngestBatchSizes = h.State(), s.State()
	return c
}

// ints flattens every integer a Counters carries, keyed by field and
// cell, dropping zeros (Sub drops zero cells and entries).
func ints(c *Counters) map[string]uint64 {
	out := map[string]uint64{
		"ingested": c.Ingested, "ring_drops": c.RingDrops, "fed": c.RecordsFed,
		"cap_drops": c.RecordCapDrops, "sampled_out": c.SampledOut, "flows_seen": c.FlowsSeen,
		"truncated": c.FlowsTruncated, "unknown_keys": c.UnknownConfigKeys,
		"fast": c.TriageFastRecords, "repromotions": c.TriageRepromotions,
		"demotions": c.TriageDemotions, "truncated_promotions": c.TriageTruncatedPromotions,
	}
	for k, n := range c.FlowsEvicted {
		out["evicted/"+k] = n
	}
	for k, n := range c.TriagePromotions {
		out["promotions/"+k] = n
	}
	for _, sc := range c.Stalls {
		out["stall/"+sc.Service+"/"+sc.Cause] = sc.Count
	}
	for _, rc := range c.Retrans {
		out["retrans/"+rc.Subcause] = rc.Count
	}
	for i, n := range c.DurationsMS.Counts {
		out[fmt.Sprintf("hist/%d", i)] = n
	}
	for k, n := range out {
		if n == 0 {
			delete(out, k)
		}
	}
	return out
}

// TestCountersMergeSubProperties pins the algebra the fleet tier rests
// on, over seeded random valid counter sets: Sub undoes Merge on every
// integer, merging into or with an empty set changes nothing, and Sub
// never wraps when prev is the larger.
func TestCountersMergeSubProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		a, b := randCounters(rng), randCounters(rng)

		sum := a.Clone()
		if err := sum.Merge(&b); err != nil {
			t.Fatalf("case %d: merge: %v", i, err)
		}
		d := sum.Sub(&a)
		if got, want := ints(&d), ints(&b); !maps.Equal(got, want) {
			t.Fatalf("case %d: (a+b)-a != b\n got  %v\n want %v", i, got, want)
		}

		var empty Counters
		if err := empty.Merge(&a); err != nil {
			t.Fatalf("case %d: merge into empty: %v", i, err)
		}
		zero := Counters{DurationsMS: stats.NewHistogram(live.DurationBoundsMS).State()}
		same := a.Clone()
		if err := same.Merge(&zero); err != nil {
			t.Fatalf("case %d: merge empty: %v", i, err)
		}
		for _, got := range []Counters{empty, same} {
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, a)) {
				t.Fatalf("case %d: empty merge is not the identity\n got  %s\n want %s", i, mustJSON(t, got), mustJSON(t, a))
			}
		}

		under := a.Sub(&sum)
		if got := ints(&under); len(got) != 0 {
			t.Fatalf("case %d: a-(a+b) left non-zero counts %v", i, got)
		}
		if under.DurationsMS.Sum != 0 || len(under.Stalls) != 0 || len(under.Retrans) != 0 {
			t.Fatalf("case %d: a-(a+b) left %+v", i, under)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// realSnapshot is a settled member snapshot of a deterministic replay:
// real cells, a populated histogram and batch summary, no digest.
func realSnapshot(t testing.TB) Snapshot {
	mon := newTestMonitor()
	mb, err := NewMember(MemberConfig{ID: "m", Head: "http://unused", Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	evs := memberEvents(workload.Services()[0], 11, 6)
	for i := 0; i < len(evs); i += 512 {
		mb.IngestBatch(evs[i:min(i+512, len(evs))])
	}
	mon.Close()
	s := mb.Snapshot()
	if len(s.Stalls) < 2 {
		t.Fatalf("replay produced %d stall cells, want at least 2", len(s.Stalls))
	}
	s.Events, s.EventsDropped = nil, 0
	return s
}

// TestHeadPushSteadyStateAllocs pins the in-place merge: an accepted
// push over 32 live members reporting the same cells must not allocate
// per member (a fold that allocates per member reads well over 100).
func TestHeadPushSteadyStateAllocs(t *testing.T) {
	base := realSnapshot(t)
	head := NewHead(HeadConfig{})
	var snap Snapshot
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("m%02d", i)
		reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: id})
		if err != nil {
			t.Fatal(err)
		}
		snap = base
		snap.MemberID, snap.Epoch, snap.Seq = id, reg.Epoch, 1
		if resp := head.Push(&snap); !resp.OK {
			t.Fatalf("push %s: %+v", id, resp)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		snap.Seq++
		if resp := head.Push(&snap); !resp.OK {
			t.Fatalf("steady push: %+v", resp)
		}
	})
	t.Logf("accepted push over 32 members: %.0f allocs", allocs)
	if allocs > 80 {
		t.Errorf("accepted push over 32 members: %.0f allocs, want ≤ 80", allocs)
	}
}

// FuzzHeadPush feeds arbitrary bytes as a push body to a head holding
// one retired epoch (so a histogram layout is already fixed) and one
// live registration. The head must never panic; a rejected push must
// leave the totals byte-identical; an accepted one must leave them
// computable.
func FuzzHeadPush(f *testing.F) {
	good := realSnapshot(f)
	good.Epoch, good.Seq = 2, 1
	seed := func(mutate func(*Snapshot)) {
		s := good
		s.Counters = good.Clone()
		mutate(&s)
		b, err := json.Marshal(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*Snapshot) {})
	seed(func(s *Snapshot) { slices.Reverse(s.Stalls) })
	seed(func(s *Snapshot) { s.DurationsMS.Counts = s.DurationsMS.Counts[1:] })
	seed(func(s *Snapshot) {
		for i := range s.DurationsMS.Bounds {
			s.DurationsMS.Bounds[i] *= 2
		}
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		head := NewHead(HeadConfig{})
		for epoch, final := range []bool{true, false} {
			reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
			if err != nil || reg.Epoch != uint64(epoch+1) {
				t.Fatalf("register: epoch %d, %v", reg.Epoch, err)
			}
			if final {
				prior := good
				prior.Epoch, prior.Final = reg.Epoch, true
				if resp := head.Push(&prior); !resp.OK {
					t.Fatalf("prior epoch push: %+v", resp)
				}
			}
		}
		var snap Snapshot
		if json.Unmarshal(body, &snap) != nil {
			return
		}
		before, err := head.Totals()
		if err != nil {
			t.Fatal(err)
		}
		resp := head.Push(&snap)
		after, err := head.Totals()
		if err != nil {
			t.Fatalf("totals after push (ok=%v): %v", resp.OK, err)
		}
		if !resp.OK && !bytes.Equal(mustJSON(t, before), mustJSON(t, after)) {
			t.Fatalf("rejected push (%s) changed the totals", resp.Error)
		}
		head.Window()
		head.TimeSeries("")
	})
}
