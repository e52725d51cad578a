package flight

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

func rec(t sim.Time, dir trace.Dir, seq uint32, length int) *trace.Record {
	return &trace.Record{T: t, Dir: dir, Seg: trace.Segment{Seq: seq, Len: length}}
}

// A nil recorder must accept every call and report empty state — this
// is the disabled fast path the analyzer leans on.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit(0, 0, KindState, NameEnterLoss, 1, 2, 3)
	r.Sample(0, rec(0, trace.DirOut, 0, 1))
	r.StallClosed(Ref{"f", 0}, 0, 1, 0, 0, "c", "", "", nil)
	r.Finalize(0, "c", "", "", nil)
	if r.Evidence(0) != nil || r.Evidences() != nil || r.Events() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.EventDrops() != 0 || r.EvidenceDrops() != 0 {
		t.Fatal("nil recorder counted drops")
	}
	var tr *Trail
	if !tr.Check("rule", true) || tr.Check("rule", false) {
		t.Fatal("nil trail altered predicate value")
	}
	tr.Note("note")
}

// The event ring must overwrite oldest-first and account for every
// overwritten event.
func TestEventRingTruncationAccounting(t *testing.T) {
	r := NewRecorder(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		r.Emit(i, sim.Time(i), KindSeg, NameDataSent, int64(i), 0, 0)
	}
	if got := r.EventDrops(); got != 6 {
		t.Fatalf("EventDrops = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Errorf("ring[%d].A = %d, want %d (oldest-first order)", i, e.A, want)
		}
	}
}

// A stall's window must hold the K records before the gap, the
// closing record, and the K after — truncated cleanly at flow edges.
func TestWindowCapture(t *testing.T) {
	r := NewRecorder(Config{WindowK: 2})
	for i := 0; i < 5; i++ {
		r.Sample(i, rec(sim.Time(i)*sim.Time(time.Second), trace.DirOut, uint32(i*1460), 1460))
	}
	// Stall closed at record 4 (gap between 3 and 4).
	r.StallClosed(Ref{"f", 0}, 3, 4, 3e9, 4e9, "pkt-delay", "", "", nil)
	// Two post-gap records arrive; a third must not extend the window.
	for i := 5; i < 8; i++ {
		r.Sample(i, rec(sim.Time(i)*sim.Time(time.Second), trace.DirIn, 0, 0))
	}
	ev := r.Evidence(0)
	if ev == nil {
		t.Fatal("no evidence stored")
	}
	var idxs []int
	for _, s := range ev.Window {
		idxs = append(idxs, s.Idx)
	}
	want := []int{2, 3, 4, 5, 6}
	if len(idxs) != len(want) {
		t.Fatalf("window indices = %v, want %v", idxs, want)
	}
	for i := range want {
		if idxs[i] != want[i] {
			t.Fatalf("window indices = %v, want %v", idxs, want)
		}
	}

	// A stall right at the start of a short flow keeps what exists.
	r2 := NewRecorder(Config{WindowK: 4})
	r2.Sample(0, rec(0, trace.DirOut, 0, 1460))
	r2.Sample(1, rec(2e9, trace.DirOut, 1460, 1460))
	r2.StallClosed(Ref{"f", 0}, 0, 1, 0, 2e9, "pkt-delay", "", "", nil)
	if n := len(r2.Evidence(0).Window); n != 2 {
		t.Fatalf("short-flow window = %d samples, want 2", n)
	}
}

// The MaxStalls cap must evict oldest evidence and count it.
func TestEvidenceCap(t *testing.T) {
	r := NewRecorder(Config{MaxStalls: 2, WindowK: 1})
	for id := 0; id < 5; id++ {
		r.Sample(id, rec(sim.Time(id), trace.DirOut, 0, 1))
		r.StallClosed(Ref{"f", id}, id, id, 0, 0, "c", "", "", nil)
	}
	if got := r.EvidenceDrops(); got != 3 {
		t.Fatalf("EvidenceDrops = %d, want 3", got)
	}
	if r.Evidence(0) != nil || r.Evidence(2) != nil {
		t.Fatal("evicted evidence still resolvable")
	}
	evs := r.Evidences()
	if len(evs) != 2 || evs[0].Ref.Stall != 3 || evs[1].Ref.Stall != 4 {
		t.Fatalf("retained evidence = %v", evs)
	}
}

// Finalize must replace the provisional decision in place and ignore
// unknown IDs.
func TestFinalizeReplacesProvisional(t *testing.T) {
	r := NewRecorder(Config{})
	r.Sample(0, rec(0, trace.DirOut, 0, 1))
	tr := &Trail{}
	tr.Check("provisional rule", true)
	r.StallClosed(Ref{"f", 0}, 0, 0, 0, 1e9, "retransmission", "small-cwnd", "", tr)
	ev := r.Evidence(0)
	if !ev.Provisional || ev.SubCause != "small-cwnd" {
		t.Fatalf("close-time evidence = %+v", ev)
	}
	tr2 := &Trail{}
	tr2.Check("settled rule", false, V("x", 7), V("dur", 250*time.Millisecond))
	r.Finalize(0, "retransmission", "ack-delay-loss", "", tr2)
	ev = r.Evidence(0)
	if ev.Provisional || ev.SubCause != "ack-delay-loss" || len(ev.Decision) != 1 || ev.Decision[0].Rule != "settled rule" {
		t.Fatalf("finalized evidence = %+v", ev)
	}
	r.Finalize(99, "x", "", "", nil) // unknown: no panic
}

// The JSON view must round-trip through encoding/json and keep the
// label-building helpers coherent.
func TestEvidenceJSON(t *testing.T) {
	r := NewRecorder(Config{WindowK: 1})
	r.Emit(0, 0, KindRTT, NameRTTSample, 1000, 500, 200000)
	r.Sample(0, rec(0, trace.DirOut, 42, 1460))
	tr := &Trail{}
	tr.Check("stall ends with outgoing data", true, V("len", 1460))
	r.StallClosed(Ref{"flow-1", 3}, 0, 0, 0, 5e8, "retransmission", "double-retrans", "t-double", tr)
	ev := r.Evidence(3)
	if got := ev.CauseLabel(); got != "retransmission/double-retrans(t-double)" {
		t.Fatalf("CauseLabel = %q", got)
	}
	b, err := json.Marshal(ev.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var back EvidenceJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ref != (Ref{"flow-1", 3}) || back.Cause != "retransmission" ||
		len(back.Decision) != 1 || len(back.Window) != 1 || len(back.Events) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
	if back.Window[0].Seq != 42 || back.Events[0].Kind != "rtt" {
		t.Fatalf("round-trip payload = %+v", back)
	}
}

// The entry sizes are what a flow's recorder costs per event held and
// per sample kept; together with the lazy ring they set the flight
// recorder's share of live_heap_mb on the sick replay.
func TestEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Errorf("Event is %d bytes, want ≤ 48 (live_heap_mb pays it per event held)", n)
	}
	if n := unsafe.Sizeof(RecSample{}); n > 40 {
		t.Errorf("RecSample is %d bytes, want ≤ 40 (live_heap_mb pays it per window sample)", n)
	}
}

// A recorder that has emitted nothing must cost next to nothing,
// whatever its RingSize: the ring is allocated on demand.
func TestNewRecorderLazyRing(t *testing.T) {
	const n = 100
	for _, size := range []int{256, 1 << 20} {
		keep := make([]*Recorder, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = NewRecorder(Config{RingSize: size})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per > 1024 {
			t.Errorf("RingSize %d: a fresh recorder retains %d B, want ≤ 1 KB", size, per)
		}
	}
}

// The grow-on-demand ring must behave exactly like a naive ring of
// RingSize slots — same Events, same drop count — never allocate past
// RingSize, and cut each stall's events out of the ring as it stands
// at close, at every wrap position.
func TestEventRingMatchesModel(t *testing.T) {
	const k = 2
	for _, size := range []int{1, 7, 16, 17, 100, 256} {
		for _, count := range []int{0, 1, size - 1, size, size + 1, 3*size + 5} {
			r := NewRecorder(Config{RingSize: size, WindowK: k, MaxStalls: 1 << 20})
			var all []Event // every event emitted, oldest first
			model := func() []Event { return all[max(0, len(all)-size):] }
			for i := 0; i < count; i++ {
				// Two events per record index, so the filter cuts inside runs.
				e := Event{Idx: i / 2, T: sim.Time(i), Kind: KindSeg, Name: NameDataSent, A: int64(i)}
				r.Emit(e.Idx, e.T, e.Kind, e.Name, e.A, 0, 0)
				all = append(all, e)
				if cap(r.events) > size {
					t.Fatalf("size %d, %d events: cap(events) = %d", size, i+1, cap(r.events))
				}
				startIdx := i/2 - i%5
				r.StallClosed(Ref{"f", i}, startIdx, startIdx+1, 0, 0, "c", "", "", nil)
				var want []Event
				for _, m := range model() {
					if m.Idx >= startIdx-k {
						want = append(want, m)
					}
				}
				if got := r.Evidence(i).Events; !slices.Equal(got, want) {
					t.Fatalf("size %d, %d events: evidence events %v, want %v", size, i+1, got, want)
				}
			}
			if got, want := r.Events(), model(); !slices.Equal(got, want) {
				t.Fatalf("size %d, %d events: Events() = %v, want %v", size, count, got, want)
			}
			if got, want := r.EventDrops(), uint64(count-len(model())); got != want {
				t.Fatalf("size %d, %d events: EventDrops = %d, want %d", size, count, got, want)
			}
		}
	}
}

// Reading a wrapped ring copies its two halves straight into the
// result: Events allocates only the copy, and StallClosed only the
// evidence, its window and its events.
func TestWrappedRingAllocs(t *testing.T) {
	r := NewRecorder(Config{RingSize: 1 << 10, MaxStalls: 1 << 20})
	for i := 0; i < 3<<10+5; i++ {
		r.Emit(i, sim.Time(i), KindSeg, NameDataSent, int64(i), 0, 0)
	}
	if r.EventDrops() == 0 {
		t.Fatal("ring did not wrap")
	}
	if n := testing.AllocsPerRun(100, func() { r.Events() }); n != 1 {
		t.Errorf("Events on a wrapped ring: %v allocs, want 1", n)
	}
	id := 0
	n := testing.AllocsPerRun(100, func() {
		id++
		r.StallClosed(Ref{"f", id}, 0, 1, 0, 0, "c", "", "", nil)
	})
	if n > 3 {
		t.Errorf("StallClosed on a wrapped ring: %v allocs, want ≤ 3", n)
	}
	if got := len(r.Evidence(id).Events); got != 1<<10 {
		t.Fatalf("evidence holds %d events, want the whole ring", got)
	}
}
