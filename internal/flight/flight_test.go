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
	r.Emit(0, 0, KindState, NameEnterLoss, 1, 2, 3)
	r.Sample(0, rec(0, trace.DirOut, 0, 1))
	r.StallClosed(Ref{"f", 0}, 0, 1, 0, 0)
	r.Settle(0, "c", "", "", nil)
	if r.Evidence(0) != nil || r.Evidences() != nil || r.Events() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.EvidenceDrops() != 0 {
		t.Fatal("nil recorder counted drops")
	}
	var tr *Trail
	if !tr.Check("rule", true) || tr.Check("rule", false) {
		t.Fatal("nil trail altered predicate value")
	}
	tr.Note("note")
}

// The event window must keep every event of the last WindowK+2
// records, oldest first, and nothing older.
func TestEventWindowTrims(t *testing.T) {
	r := NewRecorder(Config{WindowK: 2})
	for i := 0; i < 20; i++ {
		r.Emit(i/2, sim.Time(i), KindSeg, NameDataSent, int64(i), 0, 0)
	}
	// Records 6…9, two events each.
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("window holds %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := int64(12 + i); e.A != want {
			t.Errorf("window[%d].A = %d, want %d (oldest-first order)", i, e.A, want)
		}
	}
	// A jump past the window leaves only the new event.
	r.Emit(100, 100, KindAck, NameAckAdvance, 1, 0, 0)
	if evs := r.Events(); len(evs) != 1 || evs[0].Idx != 100 {
		t.Fatalf("after a jump the window holds %v, want the one new event", evs)
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
	r.StallClosed(Ref{"f", 0}, 3, 4, 3e9, 4e9)
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
	r2.StallClosed(Ref{"f", 0}, 0, 1, 0, 2e9)
	if n := len(r2.Evidence(0).Window); n != 2 {
		t.Fatalf("short-flow window = %d samples, want 2", n)
	}
}

// The MaxStalls cap must evict oldest evidence and count it.
func TestEvidenceCap(t *testing.T) {
	r := NewRecorder(Config{MaxStalls: 2, WindowK: 1})
	for id := 0; id < 5; id++ {
		r.Sample(id, rec(sim.Time(id), trace.DirOut, 0, 1))
		r.StallClosed(Ref{"f", id}, id, id, 0, 0)
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

// A closed stall's evidence carries no verdict until Settle writes
// one, and Settle ignores unknown IDs.
func TestSettleWritesVerdict(t *testing.T) {
	r := NewRecorder(Config{})
	r.Sample(0, rec(0, trace.DirOut, 0, 1))
	r.StallClosed(Ref{"f", 0}, 0, 0, 0, 1e9)
	ev := r.Evidence(0)
	if ev.Cause != "" || ev.SubCause != "" || ev.Decision != nil || len(ev.Window) != 1 {
		t.Fatalf("unsettled evidence = %+v", ev)
	}
	tr := &Trail{}
	tr.Check("settled rule", false, V("x", 7), V("dur", 250*time.Millisecond))
	r.Settle(0, "retransmission", "ack-delay-loss", "", tr)
	ev = r.Evidence(0)
	if ev.Cause != "retransmission" || ev.SubCause != "ack-delay-loss" || len(ev.Decision) != 1 || ev.Decision[0].Rule != "settled rule" {
		t.Fatalf("settled evidence = %+v", ev)
	}
	r.Settle(99, "x", "", "", nil) // unknown: no panic
}

// The JSON view must round-trip through encoding/json.
func TestEvidenceJSON(t *testing.T) {
	r := NewRecorder(Config{WindowK: 1})
	r.Emit(0, 0, KindRTT, NameRTTSample, 1000, 500, 200000)
	r.Sample(0, rec(0, trace.DirOut, 42, 1460))
	tr := &Trail{}
	tr.Check("stall ends with outgoing data", true, V("len", 1460))
	r.StallClosed(Ref{"flow-1", 3}, 0, 0, 0, 5e8)
	r.Settle(3, "retransmission", "double-retrans", "t-double", tr)
	b, err := json.Marshal(r.Evidence(3).JSON())
	if err != nil {
		t.Fatal(err)
	}
	var back EvidenceJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ref != (Ref{"flow-1", 3}) || back.Cause != "retransmission" || back.DoubleKind != "t-double" ||
		len(back.Decision) != 1 || len(back.Window) != 1 || len(back.Events) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
	if back.Window[0].Seq != 42 || back.Events[0].Kind != "rtt" {
		t.Fatalf("round-trip payload = %+v", back)
	}
}

// A RecSample is what a flow's recorder costs per window sample kept,
// and an Event what reading the ring costs per event decoded.
func TestEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Errorf("Event is %d bytes, want ≤ 48 (Events and Evidence.Events allocate it per event)", n)
	}
	if n := unsafe.Sizeof(RecSample{}); n > 40 {
		t.Errorf("RecSample is %d bytes, want ≤ 40 (live_heap_mb pays it per window sample)", n)
	}
}

// A recorder that has emitted nothing must cost next to nothing: the
// event window is allocated on demand.
func TestNewRecorderLazyRing(t *testing.T) {
	const n = 100
	keep := make([]*Recorder, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRecorder(Config{})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per > 1024 {
		t.Errorf("a fresh recorder retains %d B, want ≤ 1 KB", per)
	}
}

// The event window must hold exactly what a naive model holds — every
// event of the last WindowK+2 records — at every wrap position of its
// circular buffer, and each stall's evidence the model's events from
// record StartIdx − WindowK on, encoded and decoded back.
func TestEventRingMatchesModel(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		for _, perRec := range []int{1, 3, 7} {
			r := NewRecorder(Config{WindowK: k, MaxStalls: 1 << 20})
			var all []Event // every event emitted, oldest first
			model := func() []Event {
				var held []Event
				for _, e := range all {
					if e.Idx >= all[len(all)-1].Idx-k-1 {
						held = append(held, e)
					}
				}
				return held
			}
			for i := 0; i < 40*perRec; i++ {
				// perRec events per record, so the window's edges cut
				// inside runs, and a skipped record every 11.
				idx := i / perRec
				idx += idx / 11
				e := Event{Idx: idx, T: sim.Time(i), Kind: KindSeg, Name: NameDataSent, A: int64(i)}
				r.Emit(e.Idx, e.T, e.Kind, e.Name, e.A, 0, 0)
				all = append(all, e)
				if got, want := r.Events(), model(); !slices.Equal(got, want) {
					t.Fatalf("k %d, %d events: Events() = %v, want %v", k, i+1, got, want)
				}
				startIdx := idx - i%(k+3)
				r.StallClosed(Ref{"f", i}, startIdx, startIdx+1, 0, 0)
				var want []Event
				for _, m := range model() {
					if m.Idx >= startIdx-k {
						want = append(want, m)
					}
				}
				if got := r.Evidence(i).Events(); !slices.Equal(got, want) {
					t.Fatalf("k %d, %d events: evidence events %v, want %v", k, i+1, got, want)
				}
			}
		}
	}
}

// Once a flow's window has grown to the most events its WindowK+2
// records emit, Emit is a slot write that allocates nothing. Reading
// the window allocates only the copy, and StallClosed only the
// evidence, its record window and its encoded events.
func TestWindowEmitAllocs(t *testing.T) {
	r := NewRecorder(Config{MaxStalls: 1 << 20})
	i := 0
	emit := func() {
		// Up to five events per record.
		r.Emit(i/5, sim.Time(i), KindSeg, NameDataSent, int64(i), 0, 0)
		i++
	}
	for range 1000 {
		emit()
	}
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Errorf("steady-state Emit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Events() }); n != 1 {
		t.Errorf("Events: %v allocs, want 1", n)
	}
	last := (i - 1) / 5 // the last event's record
	id := 0
	n := testing.AllocsPerRun(100, func() {
		id++
		r.StallClosed(Ref{"f", id}, last-1, last, 0, 0)
	})
	if n > 3 {
		t.Errorf("StallClosed: %v allocs, want ≤ 3", n)
	}
	if got, want := len(r.Evidence(id).Events()), len(r.Events()); got != want {
		t.Fatalf("evidence holds %d events, want the window's %d", got, want)
	}
}
