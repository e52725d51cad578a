package triage

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
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
	if c.RingCap != 1024 || c.DemoteAfter != 2*time.Second {
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
	if rtt, ok := f.minRTT, f.hasRTT; !ok || rtt != 10*time.Millisecond {
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
	if rtt, _ := f.minRTT, f.hasRTT; rtt != 8*time.Millisecond {
		t.Fatalf("TSEcr sample: minRTT=%v, want 8ms", rtt)
	}
}

// TestTSEcrSampleOffsetClock: the timestamp sample maps the server's
// TSval clock onto record time through the least r.T − TSVal seen
// outbound, as the analyzer does. A sample above trace.MaxTSRTT, which
// is what an echo of a wrapped TSval gives, falls back to the time
// since the latest data send, as the analyzer falls back to its
// ack-edge sample.
func TestTSEcrSampleOffsetClock(t *testing.T) {
	for _, tc := range []struct {
		off, echo time.Duration
		want      time.Duration
	}{
		{10 * time.Second, 30*time.Millisecond + 10*time.Second, 8 * time.Millisecond},
		{-3 * time.Millisecond, 27 * time.Millisecond, 8 * time.Millisecond},
		// The TSval clock wrapped: the echo maps 1000 h back, and the
		// surrogate, 38 ms − 30 ms, is taken instead.
		{1000 * time.Hour, time.Millisecond, 8 * time.Millisecond},
	} {
		f := NewFlow(Config{})
		feedAll(f, []trace.Record{
			rec(30, trace.DirOut, trace.Segment{Seq: 1, Len: 1000, Wnd: 65535,
				TSVal: sim.Time(30*time.Millisecond + tc.off)}),
			rec(38, trace.DirIn, trace.Segment{Flags: packet.FlagACK, Seq: 101, Ack: 1001, Wnd: 65535,
				TSEcr: sim.Time(tc.echo)}),
		})
		if rtt, ok := f.minRTT, f.hasRTT; rtt != tc.want || !ok {
			t.Errorf("clock %v ahead, echo %v: minRTT = %v, %v; want %v", tc.off, tc.echo, rtt, ok, tc.want)
		}
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
	if rtt, ok := f.minRTT, f.hasRTT; !ok || rtt != 7*time.Millisecond {
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

// TestRingGrowthAndOverwrite pins the ring mechanics: growth a chunk
// at a time, capacity clamp, oldest-first overwrite, and absolute
// index accounting.
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
	if got := f.ringStart; got != 100-32 {
		t.Fatalf("RingStart=%d, want %d", got, 100-32)
	}
	// Attach truncates (history lost) and replay yields exactly the
	// retained suffix in order.
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
	if f.fed != f.Total() {
		t.Fatalf("Fed=%d after full replay, want %d", f.fed, f.Total())
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
	if f.fed != 5 {
		t.Fatalf("Fed=%d after spill, want 5", f.fed)
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

// TestSACKInlineCopy: buffered SACK blocks are encoded into the ring
// and must not alias the caller's record — the caller may reuse it
// immediately.
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

// maxRecordBytes bounds one encoded record (113 bytes): header,
// extension and flags bytes, six 64-bit varints (Dir, time, Len, Wnd,
// TSVal, TSEcr), two 32-bit ones (Seq, Ack), and four SACK blocks of
// two 32-bit ones. append relies on every record fitting an empty chunk.
const maxRecordBytes = 3 + 6*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32 +
	packet.MaxSACKBlocks*2*binary.MaxVarintLen32

// TestChunkLayout pins the ring's footprint: a chunk is 256 bytes,
// one Go size class, and holds the largest record; on the healthy
// simulator mix a record encodes to at most 8 bytes (the flat slot it
// replaced took 48).
func TestChunkLayout(t *testing.T) {
	if got := unsafe.Sizeof(chunk{}); got != chunkBytes || chunkBytes != 256 {
		t.Errorf("chunk is %d bytes, want %d = 256", got, chunkBytes)
	}
	if maxRecordBytes > len(chunk{}.b) {
		t.Errorf("a record may take %d bytes, more than a chunk's %d", maxRecordBytes, len(chunk{}.b))
	}
	var recs, bytes int
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(workload.Healthy(svc), 11, workload.GenOptions{Flows: 40}) {
			f := NewFlow(Config{RingCap: len(fr.Flow.Records) + 2})
			feedAll(f, fr.Flow.Records)
			for c := f.front; c != nil; c = c.next {
				recs += int(c.recs)
				bytes += int(c.used)
			}
		}
	}
	per := float64(bytes) / float64(recs)
	t.Logf("healthy mix: %d records in %d encoded bytes, %.2f B/record", recs, bytes, per)
	if recs == 0 || per > 8 {
		t.Errorf("healthy records encode to %.2f B each, want <= 8", per)
	}
}

// ringRecord builds record i of a stream whose every field varies with
// i, so records differ in size and chunk edges fall at shifting
// indices. Every seventh and every thirteenth record carries SACK
// blocks (one to four).
func ringRecord(i int) trace.Record {
	r := rec(i, trace.Dir(i%2), trace.Segment{
		Flags: packet.TCPFlags(i%7) | packet.FlagACK,
		Seq:   uint32(1 + i*100),
		Ack:   uint32(7 + i*3),
		Len:   i % 1461,
		Wnd:   65535 - i,
		TSVal: sim.Time(i) * sim.Time(time.Microsecond),
		TSEcr: sim.Time(2*i) * sim.Time(time.Microsecond),
	})
	if i%7 == 3 || i%13 == 0 {
		for k := 0; k <= i%packet.MaxSACKBlocks; k++ {
			left := uint32(i*1000 + k*10)
			r.Seg.SACK.Append(packet.SACKBlock{Left: left, Right: left + 5})
		}
	}
	return r
}

// checkChunks verifies that the chain front → … → tail holds exactly
// the retained records: only the front's first ringStart−frontFirst
// records are dropped ones, and no chunk holds nothing retained.
func checkChunks(t *testing.T, f *Flow) {
	t.Helper()
	if f.front == nil {
		t.Fatalf("no chunks while %d records are retained", f.retained())
	}
	held := 0
	for c := f.front; c != nil; c = c.next {
		if c.recs == 0 {
			t.Fatalf("an empty chunk is linked into the ring")
		}
		held += int(c.recs)
		if c.next == nil && c != f.tail {
			t.Fatalf("the chain ends before the tail")
		}
	}
	dropped := f.ringStart - f.frontFirst
	if dropped >= uint64(f.front.recs) || held-int(dropped) != f.retained() {
		t.Fatalf("chunks hold %d records, %d of them dropped; %d retained", held, dropped, f.retained())
	}
}

// TestRingLayout drives rings of several sizes through several wraps
// with records of varying size, SACK-bearing ones among them. The
// flow attaches after half a ring, then alternates between promoted
// stretches (every record replayed at once) and parked ones (the ring
// spills what the analyzer has not consumed). Retention must be
// exactly the last RingCap records after every Observe, the chunks
// must hold those and no wholly dropped chunk, and every record handed
// back, by replay or by spill, must equal the record observed at its
// index, in order, with none skipped. With the shared arena, each ring
// reuses the chunks the previous ones released.
func TestRingLayout(t *testing.T) {
	shared := NewArena()
	for _, ringCap := range []int{2, 3, 13, 14, 15, 130, 1024} {
		for _, arena := range []*Arena{nil, shared} {
			f := NewFlowIn(Config{RingCap: ringCap}, trace.DefaultTau, arena)
			total := 3*ringCap + 133
			recs := make([]trace.Record, total)
			for i := range recs {
				recs[i] = ringRecord(i)
			}
			next := uint64(0) // index of the next record due back
			spills := 0
			check := func(how string, r *trace.Record) {
				t.Helper()
				if !reflect.DeepEqual(*r, recs[next]) {
					t.Fatalf("RingCap %d: %s record %d = %+v, want %+v", ringCap, how, next, *r, recs[next])
				}
				next++
			}
			for i := range recs {
				_, spill, spilled := f.Observe(&recs[i])
				if spilled {
					check("spilled", &spill)
					spills++
				}
				if got, want := f.retained(), min(i+1, ringCap); got != want {
					t.Fatalf("RingCap %d: %d records retained after %d observed, want %d", ringCap, got, i+1, want)
				}
				checkChunks(t, f)
				if i+1 == ringCap/2+1 && f.Attach() {
					t.Fatalf("RingCap %d: attach after %d records truncated", ringCap, i+1)
				}
				// Promoted for ringCap/3+1 records, then parked for as
				// many plus one ring, so parking spills.
				if f.attached && i%(2*ringCap/3+ringCap+3) < ringCap/3+1 {
					f.ReplayUnfed(func(r *trace.Record) { check("replayed", r) })
				}
			}
			f.ReplayUnfed(func(r *trace.Record) { check("replayed", r) })
			if next != uint64(total) || spills == 0 {
				t.Fatalf("RingCap %d: %d of %d records handed back (%d spilled)",
					ringCap, next, total, spills)
			}
			f.Release()
		}
	}
}

// TestRingRoundTripExact: every field comes back at its full width —
// the 48-byte slot this ring replaced narrowed Len and Wnd to int32.
// Each case is observed into a fresh ring (so its first record is
// encoded against the zero state) and into one already holding a
// record of each direction, then replayed.
func TestRingRoundTripExact(t *testing.T) {
	const big = 1 << 40
	sack := func(ack uint32, n int) packet.SACKList {
		var l packet.SACKList
		for k := 0; k < n; k++ {
			// The first block of the longest list is a DSACK below Ack.
			left := ack + uint32(k)*3000
			if k == 0 && n == packet.MaxSACKBlocks {
				left = ack - 2000
			}
			l.Append(packet.SACKBlock{Left: left, Right: left + 1448})
		}
		return l
	}
	var cases []trace.Record
	for _, t0 := range []sim.Time{math.MinInt64, -1, 0, math.MaxInt64} {
		cases = append(cases, trace.Record{T: t0, Dir: trace.DirOut, Seg: trace.Segment{
			TSVal: t0, TSEcr: -t0 - 1, Len: big, Wnd: -1}})
	}
	for _, v := range []int{big, -1, math.MaxInt, math.MinInt, 0} {
		cases = append(cases, trace.Record{T: 5, Dir: trace.DirIn, Seg: trace.Segment{Len: v, Wnd: v}})
	}
	for _, seq := range []uint32{math.MaxUint32, 0, 7, math.MaxUint32 - 3} {
		cases = append(cases, trace.Record{T: 9, Dir: trace.DirOut, Seg: trace.Segment{
			Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Ack: ^seq, Len: 1448, Wnd: 65535,
			TSVal: -3, TSEcr: math.MinInt64}})
	}
	for n := 0; n <= packet.MaxSACKBlocks; n++ {
		for _, ack := range []uint32{1000, 500, math.MaxUint32 - 100} {
			cases = append(cases, trace.Record{T: 11, Dir: trace.DirIn, Seg: trace.Segment{
				Flags: packet.FlagACK, Ack: ack, Wnd: 1 << 20, SACK: sack(ack, n)}})
		}
	}
	cases = append(cases, trace.Record{T: 13, Dir: trace.Dir(-7)}, trace.Record{T: 14, Dir: trace.Dir(2)})
	prefix := []trace.Record{
		{T: 1, Dir: trace.DirOut, Seg: trace.Segment{Seq: 100, Ack: 200, Len: 10, Wnd: 30, TSVal: 4, TSEcr: 5}},
		{T: 2, Dir: trace.DirIn, Seg: trace.Segment{Seq: 200, Ack: 110, Len: 3, Wnd: 40, TSVal: 6, TSEcr: 4}},
	}
	for i := range cases {
		for _, pre := range [][]trace.Record{nil, prefix} {
			f := NewFlow(Config{RingCap: 8})
			recs := append(append([]trace.Record(nil), pre...), cases[i], cases[i], cases[(i+1)%len(cases)])
			for j := range recs {
				f.Observe(&recs[j])
			}
			f.Attach()
			var got []trace.Record
			f.ReplayUnfed(func(r *trace.Record) { got = append(got, *r) })
			if !reflect.DeepEqual(got, recs) {
				t.Errorf("case %d, %d-record prefix: replayed\n%+v\nwant\n%+v", i, len(pre), got, recs)
			}
		}
	}
}

// TestZeroAlloc: the steady-state fast path — Observe on a flow whose
// ring is at capacity — performs zero heap allocations per record, the
// property that makes triage line-rate. The measured records cross
// many chunk boundaries past capacity, carry SACK blocks, and run with
// and without an arena: a ring at capacity keeps the chunk it frees
// for the next one it fills.
func TestZeroAlloc(t *testing.T) {
	const ringCap = 130
	recs := make([]trace.Record, 4*ringCap)
	for i := range recs {
		recs[i] = ringRecord(i)
	}
	for _, arena := range []*Arena{nil, NewArena()} {
		f := NewFlowIn(Config{RingCap: ringCap}, trace.DefaultTau, arena)
		// Fill the ring twice with the stream the measurement repeats.
		for i := range recs[:2*ringCap] {
			f.Observe(&recs[i])
		}
		i := 0
		allocs := testing.AllocsPerRun(320, func() {
			f.Observe(&recs[i%len(recs)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("arena %v: Observe allocates %v per record in steady state, want 0", arena != nil, allocs)
		}
	}
}

// TestReplayUnfedZeroAlloc: a promoted flow hands each new record to
// the analyzer through ReplayUnfed right after Observe buffers it, and
// that replay allocates nothing per record: the record is decoded into
// the cursor, not into a value that escapes through the callback.
func TestReplayUnfedZeroAlloc(t *testing.T) {
	const ringCap = 130
	recs := make([]trace.Record, 4*ringCap)
	for i := range recs {
		recs[i] = ringRecord(i)
	}
	f := NewFlow(Config{RingCap: ringCap})
	fed := 0
	feed := func(r *trace.Record) { fed += r.Seg.Len }
	for i := range recs[:2*ringCap] {
		f.Observe(&recs[i])
	}
	f.Attach()
	f.ReplayUnfed(feed)
	i := 0
	allocs := testing.AllocsPerRun(320, func() {
		f.Observe(&recs[i%len(recs)])
		f.ReplayUnfed(feed)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a promoted flow allocates %v per record observed and replayed, want 0", allocs)
	}
	if f.fed != f.Total() || fed == 0 {
		t.Fatalf("fed %d of %d records (%d bytes): the replay did not keep up", f.fed, f.Total(), fed)
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
	f.frontFirst += jump
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
	if f.fed != f.Total() {
		t.Fatalf("Fed=%d after full replay, want %d", f.fed, f.Total())
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
