package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/workload"
)

// randCounters draws a valid Counters: sorted cells with non-zero
// counts and stall times, the live histogram layout, a summary of
// batch sizes built by Add.
func randCounters(rng *rand.Rand) Counters {
	n := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	c := Counters{
		Ingested: n(), RingDrops: n(), RecordsFed: n(), RecordCapDrops: n(),
		FlowsSeen: n(), FlowsTruncated: n(),
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
				c.Stalls = append(c.Stalls, StallCounter{Service: svc, Cause: cause, Count: 1 + n(), Time: time.Duration(1 + rng.Int63n(int64(100*time.Second)))})
			}
		}
	}
	for _, sub := range []string{"double", "tail", "timeout"} {
		if rng.Intn(2) == 0 {
			c.Retrans = append(c.Retrans, RetransCounter{Subcause: sub, Count: 1 + n(), Time: time.Duration(1 + rng.Int63n(int64(10*time.Second)))})
		}
	}
	h := stats.NewHistogram(live.DurationBoundsMS)
	var s stats.Summary
	for i := rng.Intn(50); i > 0; i-- {
		h.Add(time.Duration(rng.Int63n(int64(5 * time.Second))))
		s.Add(float64(1 + rng.Intn(512)))
	}
	c.DurationsMS, c.IngestBatchSizes = h.State(), s.State()
	return c
}

// ints flattens every integer a Counters carries, keyed by field and
// cell, dropping zeros (Sub drops zero cells and entries). Durations
// are nanoseconds.
func ints(c *Counters) map[string]uint64 {
	out := map[string]uint64{
		"ingested": c.Ingested, "ring_drops": c.RingDrops, "fed": c.RecordsFed,
		"cap_drops": c.RecordCapDrops, "flows_seen": c.FlowsSeen,
		"truncated": c.FlowsTruncated,
		"fast":      c.TriageFastRecords, "repromotions": c.TriageRepromotions,
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
		out["stall_ns/"+sc.Service+"/"+sc.Cause] = uint64(sc.Time)
	}
	for _, rc := range c.Retrans {
		out["retrans/"+rc.Subcause] = rc.Count
		out["retrans_ns/"+rc.Subcause] = uint64(rc.Time)
	}
	for i, n := range c.DurationsMS.Counts {
		out[fmt.Sprintf("hist/%d", i)] = n
	}
	out["hist_sum_ns"] = uint64(c.DurationsMS.SumNS)
	for k, n := range out {
		if n == 0 {
			delete(out, k)
		}
	}
	return out
}

// TestCountersMergeSubProperties pins the algebra the fleet tier rests
// on, over seeded random valid counter sets: folding sets in any order
// gives byte-identical JSON, Sub undoes Merge on every integer, merging
// into or with an empty set changes nothing, and Sub never wraps when
// prev is the larger.
func TestCountersMergeSubProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var sets []Counters
	fold := func() []byte {
		acc := emptyTotals().Counters
		for i := range sets {
			if err := acc.Merge(&sets[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return mustJSON(t, acc)
	}
	for i := 0; i < 200; i++ {
		sets = append(sets, randCounters(rng))
	}
	want := fold()
	for i := 0; i < 200; i++ {
		rng.Shuffle(len(sets), func(a, b int) { sets[a], sets[b] = sets[b], sets[a] })
		if got := fold(); !bytes.Equal(got, want) {
			t.Fatalf("shuffle %d: the fold depends on order\n got  %s\n want %s", i, got, want)
		}
	}

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

		empty := emptyTotals().Counters
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
		if len(under.Stalls) != 0 || len(under.Retrans) != 0 {
			t.Fatalf("case %d: a-(a+b) left %+v", i, under)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
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
// one retired epoch and one live registration. The head must never
// panic; a rejected push must leave the totals byte-identical; an
// accepted one must leave them equal to Aggregate over the retired
// snapshot and the push in either order, with whole-number batch sums
// and a batch count that saturates instead of wrapping negative.
func FuzzHeadPush(f *testing.F) {
	good := realSnapshot(f)
	good.Epoch, good.Seq = 2, 1
	seed := func(mutate func(*Snapshot)) {
		s := good
		s.Counters = good.Clone()
		mutate(&s)
		f.Add(encode(f, &s))
	}
	seed(func(*Snapshot) {})
	seed(func(s *Snapshot) { slices.Reverse(s.Stalls) })
	seed(func(s *Snapshot) { s.DurationsMS.Counts = s.DurationsMS.Counts[1:] })
	seed(func(s *Snapshot) {
		for i := range s.DurationsMS.Bounds {
			s.DurationsMS.Bounds[i] *= 2
		}
	})
	seed(func(s *Snapshot) { s.IngestBatchSizes.Sum += 0.5 })
	// A batch count that, added to the retired epoch's, passes MaxInt:
	// the total must saturate, not wrap negative and fail Totals.
	seed(func(s *Snapshot) { s.IngestBatchSizes.N = math.MaxInt })
	// What a member left at wire v5 sends, and a body cut short.
	v5 := good
	v5.Version = 5
	f.Add(mustJSON(f, &v5))
	f.Add(encode(f, &good)[:100])

	f.Fuzz(func(t *testing.T, body []byte) {
		head := NewHead(HeadConfig{})
		prior := good
		for epoch, final := range []bool{true, false} {
			reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
			if err != nil || reg.Epoch != uint64(epoch+1) {
				t.Fatalf("register: epoch %d, %v", reg.Epoch, err)
			}
			if final {
				prior.Epoch, prior.Final = reg.Epoch, true
				if resp := head.Push(&prior); !resp.OK {
					t.Fatalf("prior epoch push: %+v", resp)
				}
			}
		}
		var snap Snapshot
		if snap.UnmarshalBinary(body) != nil {
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
		if resp.OK {
			for _, order := range [][]Snapshot{{prior, snap}, {snap, prior}} {
				want, err := Aggregate(order...)
				if err != nil {
					t.Fatalf("aggregate of an accepted push: %v", err)
				}
				if !bytes.Equal(mustJSON(t, want), mustJSON(t, after)) {
					t.Fatalf("head totals differ from Aggregate(%s, %s)\n head: %s\n want: %s",
						order[0].MemberID, order[1].MemberID, mustJSON(t, after), mustJSON(t, want))
				}
			}
			if b := snap.IngestBatchSizes; b.Sum != math.Trunc(b.Sum) || b.SumSq != math.Trunc(b.SumSq) {
				t.Fatalf("accepted a batch summary with fractional sums %+v", b)
			}
			if n := after.IngestBatchSizes.N; n < 0 {
				t.Fatalf("batch count wrapped to %d: the next fold would reject the totals", n)
			}
		}
		head.Window()
		head.TimeSeries("")
	})
}
