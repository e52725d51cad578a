package triage

import (
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// rec builds one record at t milliseconds.
func rec(tms int, dir trace.Dir, seg trace.Segment) trace.Record {
	return trace.Record{
		T:   sim.Time(time.Duration(tms) * time.Millisecond),
		Dir: dir,
		Seg: seg,
	}
}

// handshake returns the canonical opening exchange ending at 20ms
// with a 10ms handshake RTT sample seeded: client SYN at 0, server
// SYN-ACK at 10, client ACK at 20.
func handshake() []trace.Record {
	return []trace.Record{
		rec(0, trace.DirIn, trace.Segment{Flags: packet.FlagSYN, Seq: 100, Wnd: 65535}),
		rec(10, trace.DirOut, trace.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: 0, Ack: 101, Wnd: 65535}),
		rec(20, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Seq: 101, Ack: 1, Wnd: 65535}),
	}
}

func feedAll(f *Flow, recs []trace.Record) Symptom {
	last := SymNone
	for i := range recs {
		sym, _, _ := f.Observe(&recs[i])
		if sym != SymNone {
			last = sym
		}
	}
	return last
}

func TestDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RingCap != 1024 || c.Tau != 2 || c.MinRTO != 200*time.Millisecond ||
		c.InitRTO != time.Second || c.DupBurst != 2 || c.DemoteAfter != 2*time.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c := (Config{RingCap: 1}).WithDefaults(); c.RingCap != 2 {
		t.Fatalf("RingCap=1 must clamp to 2, got %d", c.RingCap)
	}
}

// TestThresholdBeforeRTT: before any RTT sample the gap threshold is
// InitRTO — a sub-InitRTO gap stays quiet, anything beyond promotes.
func TestThresholdBeforeRTT(t *testing.T) {
	f := NewFlow(Config{})
	r0 := rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r0); sym != SymNone {
		t.Fatalf("first record raised %v", sym)
	}
	r1 := rec(999, trace.DirOut, trace.Segment{Seq: 1001, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r1); sym == SymGap {
		t.Fatalf("999ms gap under InitRTO=1s raised SymGap")
	}
	r2 := rec(2001, trace.DirOut, trace.Segment{Seq: 2001, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r2); sym != SymGap {
		t.Fatalf("1002ms gap over InitRTO did not raise SymGap")
	}
}

// TestHandshakeSeedLowersThreshold: the SYN-ACK→ACK handshake sample
// (10ms here) drops the gap threshold to min(2·10ms, 10ms+MinRTO) =
// 20ms.
func TestHandshakeSeedLowersThreshold(t *testing.T) {
	f := NewFlow(Config{})
	feedAll(f, handshake())
	if rtt, ok := f.MinRTT(); !ok || rtt != 10*time.Millisecond {
		t.Fatalf("handshake seed: got (%v,%v), want (10ms,true)", rtt, ok)
	}
	// 19ms gap: under 2·minRTT, quiet.
	r := rec(39, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r); sym != SymNone {
		t.Fatalf("19ms gap raised %v", sym)
	}
	// 21ms gap: over 2·minRTT = 20ms, promotes.
	r = rec(60, trace.DirOut, trace.Segment{Seq: 1001, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r); sym != SymGap {
		t.Fatalf("21ms gap did not raise SymGap")
	}
}

// TestThresholdMinRTOCap: for a large minRTT the threshold is
// minRTT+MinRTO, not 2·minRTT — so an ordinary one-RTT quiet period
// never promotes, but the analyzer's RTO floor is still respected.
func TestThresholdMinRTOCap(t *testing.T) {
	f := NewFlow(Config{})
	f.sample(500 * time.Millisecond)
	if got, want := f.threshold(), 700*time.Millisecond; got != want {
		t.Fatalf("threshold=%v, want %v (minRTT+MinRTO)", got, want)
	}
	f2 := NewFlow(Config{})
	f2.sample(50 * time.Millisecond)
	if got, want := f2.threshold(), 100*time.Millisecond; got != want {
		t.Fatalf("threshold=%v, want %v (2·minRTT)", got, want)
	}
}

// TestTSEcrSample: an ack-advance with TSEcr takes the exact
// analyzer sample; the minimum only ratchets down.
func TestTSEcrSample(t *testing.T) {
	f := NewFlow(Config{})
	recs := handshake()
	recs = append(recs,
		rec(30, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535,
			TSVal: sim.Time(30 * time.Millisecond)}),
		rec(38, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Seq: 101, Ack: 1001, Wnd: 65535,
			TSEcr: sim.Time(30 * time.Millisecond)}),
	)
	feedAll(f, recs)
	if rtt, _ := f.MinRTT(); rtt != 8*time.Millisecond {
		t.Fatalf("TSEcr sample: minRTT=%v, want 8ms", rtt)
	}
}

// TestSurrogateSample: without timestamps, an ack-advance samples the
// time since the latest data send — a lower bound of the analyzer's
// edge sample.
func TestSurrogateSample(t *testing.T) {
	f := NewFlow(Config{})
	recs := []trace.Record{
		rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535}),
		rec(5, trace.DirOut, trace.Segment{Seq: 1001, Len: 1000, Wnd: 65535}),
		rec(12, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 2001, Wnd: 65535}),
	}
	feedAll(f, recs)
	// 12ms − 5ms (latest send) = 7ms, ≤ the true edge RTT of 12ms.
	if rtt, ok := f.MinRTT(); !ok || rtt != 7*time.Millisecond {
		t.Fatalf("surrogate sample: got (%v,%v), want (7ms,true)", rtt, ok)
	}
}

func TestSymRetrans(t *testing.T) {
	f := NewFlow(Config{})
	recs := []trace.Record{
		rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535}),
		rec(1, trace.DirOut, trace.Segment{Seq: 1001, Len: 1000, Wnd: 65535}),
	}
	feedAll(f, recs)
	r := rec(2, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535})
	if sym, _, _ := f.Observe(&r); sym != SymRetrans {
		t.Fatalf("resend below edge raised %v, want SymRetrans", sym)
	}
}

func TestSymZeroWindow(t *testing.T) {
	f := NewFlow(Config{})
	r0 := rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535})
	f.Observe(&r0)
	r := rec(1, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 1001, Wnd: 0})
	if sym, _, _ := f.Observe(&r); sym != SymZeroWindow {
		t.Fatalf("zero window raised %v", sym)
	}
}

// TestSymDupAck: repeated pure ACKs at the cumulative edge with SACK
// promote at DupBurst; plain window updates (changed Wnd, no SACK) do
// not count.
func TestSymDupAck(t *testing.T) {
	f := NewFlow(Config{})
	recs := []trace.Record{
		rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535}),
		rec(1, trace.DirOut, trace.Segment{Seq: 1001, Len: 1000, Wnd: 65535}),
		rec(2, trace.DirOut, trace.Segment{Seq: 2001, Len: 1000, Wnd: 65535}),
		rec(10, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 1001, Wnd: 65535}),
	}
	feedAll(f, recs)
	dup := func(tms int) trace.Record {
		return rec(tms, trace.DirIn, trace.Segment{
			Flags: packet.FlagACK, Ack: 1001, Wnd: 65535,
			SACK: packet.SACKBlocks(packet.SACKBlock{Left: 2001, Right: 3001}),
		})
	}
	d1 := dup(11)
	if sym, _, _ := f.Observe(&d1); sym != SymNone {
		t.Fatalf("first dupack raised %v", sym)
	}
	d2 := dup(12)
	if sym, _, _ := f.Observe(&d2); sym != SymDupAck {
		t.Fatalf("second dupack raised %v, want SymDupAck", sym)
	}

	// Window updates at the edge are not dupacks.
	g := NewFlow(Config{})
	feedAll(g, recs)
	w := rec(11, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 1001, Wnd: 70000})
	g.Observe(&w)
	w2 := rec(12, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 1001, Wnd: 80000})
	if sym, _, _ := g.Observe(&w2); sym == SymDupAck {
		t.Fatalf("window updates counted as dupacks")
	}
}

// TestSymNoAdvance: records keep flowing (so no SymGap) while the
// cumulative ACK stays pinned past the hold threshold.
func TestSymNoAdvance(t *testing.T) {
	f := NewFlow(Config{})
	recs := append(handshake(),
		rec(30, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535}),
	)
	feedAll(f, recs)
	// minRTT=10ms → threshold 20ms → hold max(80ms, MinRTO=200ms) =
	// 200ms. Feed keepalive-style window updates every 15ms (< 20ms
	// gap threshold) until the pin exceeds the hold.
	last := SymNone
	for tms := 45; tms < 300; tms += 15 {
		r := rec(tms, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 65535 + tms})
		sym, _, _ := f.Observe(&r)
		if sym != SymNone {
			last = sym
			break
		}
	}
	if last != SymNoAdvance {
		t.Fatalf("pinned ACK raised %v, want SymNoAdvance", last)
	}
}

// TestRingGrowthAndOverwrite pins the ring mechanics: geometric
// growth from 16, capacity clamp, oldest-first overwrite, and
// absolute index accounting.
func TestRingGrowthAndOverwrite(t *testing.T) {
	f := NewFlow(Config{RingCap: 32})
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rec(i, trace.DirOut, trace.Segment{Seq: uint32(1 + i*100), Len: 100, Wnd: 65535}))
	}
	for i := range recs {
		f.Observe(&recs[i])
	}
	if f.Total() != 100 {
		t.Fatalf("Total=%d", f.Total())
	}
	if got := f.RingStart(); got != 100-32 {
		t.Fatalf("RingStart=%d, want %d", got, 100-32)
	}
	// Attach truncates (history lost) and replay yields exactly the
	// retained suffix in order.
	if !f.Attach() {
		t.Fatal("Attach on an overflowed ring must report truncation")
	}
	if !f.Truncated() {
		t.Fatal("Truncated() false after truncating attach")
	}
	var got []trace.Record
	f.ReplayUnfed(func(r *trace.Record) { got = append(got, *r) })
	if len(got) != 32 {
		t.Fatalf("replayed %d records, want 32", len(got))
	}
	for i, r := range got {
		want := recs[100-32+i]
		if r.T != want.T || r.Seg.Seq != want.Seg.Seq {
			t.Fatalf("replay[%d] = {T:%v Seq:%d}, want {T:%v Seq:%d}",
				i, r.T, r.Seg.Seq, want.T, want.Seg.Seq)
		}
	}
	if f.Fed() != f.Total() {
		t.Fatalf("Fed=%d after full replay, want %d", f.Fed(), f.Total())
	}
}

// TestAttachWithinRingNotTruncated: promotion while the whole history
// is still buffered replays from record zero and reports no loss.
func TestAttachWithinRingNotTruncated(t *testing.T) {
	f := NewFlow(Config{RingCap: 64})
	for i := 0; i < 10; i++ {
		r := rec(i, trace.DirOut, trace.Segment{Seq: uint32(1 + i*100), Len: 100, Wnd: 65535})
		f.Observe(&r)
	}
	if f.Attach() {
		t.Fatal("Attach within ring capacity reported truncation")
	}
	n := 0
	f.ReplayUnfed(func(*trace.Record) { n++ })
	if n != 10 {
		t.Fatalf("replayed %d, want 10", n)
	}
}

// TestSpillWhileParked: once attached, ring overflow hands back the
// record the analyzer has not consumed, pre-accounted as fed.
func TestSpillWhileParked(t *testing.T) {
	f := NewFlow(Config{RingCap: 4})
	mk := func(i int) trace.Record {
		return rec(i, trace.DirOut, trace.Segment{
			Seq: uint32(1 + i*100), Len: 100, Wnd: 65535,
			SACK: packet.SACKBlocks(packet.SACKBlock{Left: uint32(i), Right: uint32(i + 1)}),
		})
	}
	for i := 0; i < 4; i++ {
		r := mk(i)
		if _, _, spilled := f.Observe(&r); spilled {
			t.Fatalf("spill before attach at record %d", i)
		}
	}
	f.Attach()
	f.ReplayUnfed(func(*trace.Record) {}) // fed = 4
	// Park (caller-side concept): stop replaying. Next 4 observes fill
	// the ring again without spill (fed stays ahead of ringStart until
	// unfed records are at the head).
	for i := 4; i < 8; i++ {
		r := mk(i)
		_, _, spilled := f.Observe(&r)
		if spilled {
			t.Fatalf("record %d spilled while unfed suffix still fits", i)
		}
	}
	// Ring now holds [4,8), fed=4: the next overflow overwrites record
	// 4, which is unfed → must spill it.
	r := mk(8)
	_, spill, spilled := f.Observe(&r)
	if !spilled {
		t.Fatal("overwriting an unfed record did not spill")
	}
	if spill.Seg.Seq != 401 {
		t.Fatalf("spilled Seq=%d, want 401 (record 4)", spill.Seg.Seq)
	}
	if spill.Seg.SACK.Len() != 1 || spill.Seg.SACK.At(0).Left != 4 {
		t.Fatalf("spilled SACK=%v, want [{4 5}]", spill.Seg.SACK)
	}
	if f.Fed() != 5 {
		t.Fatalf("Fed=%d after spill, want 5", f.Fed())
	}
	// Replaying now yields records 5..8 — no duplicates, no holes.
	var seqs []uint32
	f.ReplayUnfed(func(r *trace.Record) { seqs = append(seqs, r.Seg.Seq) })
	want := []uint32{501, 601, 701, 801}
	if len(seqs) != len(want) {
		t.Fatalf("replayed %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("replayed %v, want %v", seqs, want)
		}
	}
}

// TestSACKInlineCopy: buffered SACK blocks must not alias the
// caller's record — the caller may reuse it immediately.
func TestSACKInlineCopy(t *testing.T) {
	f := NewFlow(Config{RingCap: 8})
	r := rec(0, trace.DirIn, trace.Segment{
		Flags: packet.FlagACK, Ack: 1, Wnd: 65535,
		SACK: packet.SACKBlocks(packet.SACKBlock{Left: 10, Right: 20}),
	})
	f.Observe(&r)
	r.Seg.SACK = packet.SACKBlocks(packet.SACKBlock{Left: 999, Right: 1000}) // caller reuses its record
	f.Attach()
	f.ReplayUnfed(func(r *trace.Record) {
		if r.Seg.SACK.Len() != 1 || r.Seg.SACK.At(0).Left != 10 {
			t.Fatalf("replayed SACK %v aliases caller memory", r.Seg.SACK)
		}
	})
}

// TestZeroAlloc: the steady-state fast path — Observe on a flow whose
// ring has grown to capacity — performs zero heap allocations per
// record, the property that makes triage line-rate.
func TestZeroAlloc(t *testing.T) {
	f := NewFlow(Config{RingCap: 16})
	// Pre-grow the ring past the geometric phase.
	for i := 0; i < 32; i++ {
		r := rec(i, trace.DirOut, trace.Segment{Seq: uint32(1 + i*100), Len: 100, Wnd: 65535})
		f.Observe(&r)
	}
	r := rec(33, trace.DirIn, trace.Segment{
		Flags: packet.FlagACK, Ack: 1001, Wnd: 65535,
		SACK: packet.SACKBlocks(packet.SACKBlock{Left: 5000, Right: 6000}),
	})
	allocs := testing.AllocsPerRun(100, func() {
		f.Observe(&r)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per record in steady state, want 0", allocs)
	}
}

// TestWrappedISN: sequence math near the 2^32 wrap must not
// misclassify in-order sends as retransmissions.
func TestWrappedISN(t *testing.T) {
	f := NewFlow(Config{})
	const isn = 0xFFFFFF00
	recs := []trace.Record{
		rec(0, trace.DirOut, trace.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: isn, Wnd: 65535}),
		rec(1, trace.DirOut, trace.Segment{Seq: isn + 1, Len: 200, Wnd: 65535}),
		rec(2, trace.DirOut, trace.Segment{Seq: isn + 201, Len: 200, Wnd: 65535}), // crosses wrap
		rec(3, trace.DirOut, trace.Segment{Seq: 145, Len: 200, Wnd: 65535}),       // post-wrap
	}
	for i := range recs {
		if sym, _, _ := f.Observe(&recs[i]); sym != SymNone {
			t.Fatalf("wrapped in-order send %d raised %v", i, sym)
		}
	}
	if f.DataBytes() != 600 {
		t.Fatalf("DataBytes=%d across wrap, want 600", f.DataBytes())
	}
	// A genuine retransmission after the wrap is still caught.
	r := rec(4, trace.DirOut, trace.Segment{Seq: 145, Len: 200, Wnd: 65535})
	if sym, _, _ := f.Observe(&r); sym != SymRetrans {
		t.Fatalf("post-wrap retransmission raised %v", sym)
	}
}

// TestSymptomClock: LastSymptom/SinceSymptom drive the caller's
// demotion decision.
func TestSymptomClock(t *testing.T) {
	f := NewFlow(Config{})
	r0 := rec(0, trace.DirOut, trace.Segment{Seq: 1, Len: 100, Wnd: 65535})
	f.Observe(&r0)
	r1 := rec(5000, trace.DirOut, trace.Segment{Seq: 101, Len: 100, Wnd: 65535})
	if sym, _, _ := f.Observe(&r1); sym != SymGap {
		t.Fatal("5s gap did not promote")
	}
	if f.LastSymptom() != SymGap {
		t.Fatalf("LastSymptom=%v", f.LastSymptom())
	}
	now := sim.Time(7 * time.Second)
	if got := f.SinceSymptom(now); got != 2*time.Second {
		t.Fatalf("SinceSymptom=%v, want 2s", got)
	}
}

func TestSymptomStrings(t *testing.T) {
	want := map[Symptom]string{
		SymNone: "none", SymGap: "gap", SymRetrans: "retrans",
		SymZeroWindow: "zero_window", SymDupAck: "dupack", SymNoAdvance: "no_advance",
	}
	for s, n := range want {
		if s.String() != n {
			t.Fatalf("%d.String()=%q, want %q", s, s.String(), n)
		}
	}
	if Symptom(200).String() != "unknown" {
		t.Fatal("out-of-range symptom must stringify as unknown")
	}
}

// TestSatInt: the saturating narrowing helper clamps at the platform
// maximum instead of wrapping negative — the fast path narrows
// ever-growing uint64 counters to int in several places, and a wrap
// would turn retained() negative or send a ring index out of range.
func TestSatInt(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	cases := []struct {
		in   uint64
		want int
	}{
		{0, 0},
		{123, 123},
		{uint64(maxInt), maxInt},
		{uint64(maxInt) + 1, maxInt},
		{^uint64(0), maxInt},
	}
	for _, c := range cases {
		if got := satInt(c.in); got != c.want {
			t.Fatalf("satInt(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestCountersPast2to31: total/ringStart/fed are absolute uint64
// indices that only grow for the life of a flow. Advance them past
// 2^31 and 2^32 — preserving the ring invariants, so the state is one
// a sufficiently long-lived connection genuinely reaches — and check
// that retained accounting, attach, replay indexing and continued
// observation all still behave. Before the saturating helpers, the
// int narrowings here truncated on 32-bit platforms.
func TestCountersPast2to31(t *testing.T) {
	f := NewFlow(Config{RingCap: 32})
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rec(i, trace.DirOut, trace.Segment{Seq: uint32(1 + i*100), Len: 100, Wnd: 65535}))
	}
	for i := range recs {
		f.Observe(&recs[i])
	}
	const jump = uint64(1)<<32 + uint64(1)<<31
	f.total += jump
	f.ringStart += jump
	f.outDataSegs += jump
	if got := f.retained(); got != 32 {
		t.Fatalf("retained=%d past 2^31, want 32", got)
	}
	if got := f.OutDataSegments(); got <= 0 {
		t.Fatalf("OutDataSegments=%d past 2^31, want positive", got)
	}
	if !f.Attach() {
		t.Fatal("Attach on an overflowed ring must report truncation")
	}
	var got []trace.Record
	f.ReplayUnfed(func(r *trace.Record) { got = append(got, *r) })
	if len(got) != 32 {
		t.Fatalf("replayed %d records, want 32", len(got))
	}
	for i, r := range got {
		want := recs[100-32+i]
		if r.T != want.T || r.Seg.Seq != want.Seg.Seq {
			t.Fatalf("replay[%d] = {T:%v Seq:%d}, want {T:%v Seq:%d}",
				i, r.T, r.Seg.Seq, want.T, want.Seg.Seq)
		}
	}
	if f.Fed() != f.Total() {
		t.Fatalf("Fed=%d after full replay, want %d", f.Fed(), f.Total())
	}
	// The flow keeps working at these indices: a fresh record lands in
	// the ring, replay hands over exactly that record.
	r := rec(100, trace.DirOut, trace.Segment{Seq: uint32(1 + 100*100), Len: 100, Wnd: 65535})
	f.Observe(&r)
	n := 0
	f.ReplayUnfed(func(rr *trace.Record) {
		n++
		if rr.Seg.Seq != r.Seg.Seq {
			t.Fatalf("replayed Seq=%d, want %d", rr.Seg.Seq, r.Seg.Seq)
		}
	})
	if n != 1 {
		t.Fatalf("replayed %d records after one new observe, want 1", n)
	}
}
