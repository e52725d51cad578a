package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// checkScoreboard recomputes by full scan what the analyzer keeps
// incrementally — packets_out, sacked_out, the acked-prefix cursor and
// the window's offset index — checks the retired runs' shape, and
// reports the first disagreement.
func (a *analyzer) checkScoreboard() error {
	out, sacked := 0, 0
	for i := range a.segs {
		g := &a.segs[i]
		if !g.acked && g.sent > 0 {
			out++
		}
		if g.sacked && !g.acked {
			sacked++
		}
	}
	if out != a.packetsOut() {
		return fmt.Errorf("packetsOut() = %d, full scan %d", a.packetsOut(), out)
	}
	if sacked != a.sackedOut() {
		return fmt.Errorf("sackedOut() = %d, full scan %d", a.sackedOut(), sacked)
	}
	if a.lo < 0 || a.lo > len(a.segs) {
		return fmt.Errorf("cursor lo = %d outside [0, %d]", a.lo, len(a.segs))
	}
	for i := 0; i < a.lo; i++ {
		if !a.segs[i].acked {
			return fmt.Errorf("segs[%d] below cursor lo = %d is not acked", i, a.lo)
		}
	}
	if a.lo < len(a.segs) && a.segs[a.lo].acked {
		return fmt.Errorf("cursor lo = %d stops at an acked segment", a.lo)
	}
	if len(a.segIdx) != len(a.segs) {
		return fmt.Errorf("segIdx holds %d offsets for %d window entries", len(a.segIdx), len(a.segs))
	}
	for i := range a.segs {
		if ord, ok := a.segIdx[a.segs[i].seq]; !ok || ord != a.segBase+i {
			return fmt.Errorf("segs[%d]: segIdx ordinal %d (present %v), want %d", i, ord, ok, a.segBase+i)
		}
	}
	for off := range a.spurious {
		if _, ok := a.segIdx[off]; !ok {
			return fmt.Errorf("spurious table keeps offset %d, which is not in the window", off)
		}
	}
	var end uint64
	for i, r := range a.retired {
		if r.n < 1 || r.segLen < 1 || (i > 0 && r.start < end) {
			return fmt.Errorf("retired run %d %+v is empty or overlaps the run before it (end %d)", i, r, end)
		}
		end = r.end()
	}
	if end > a.retiredEnd {
		return fmt.Errorf("retired runs end at %d, above retiredEnd %d", end, a.retiredEnd)
	}
	return nil
}

// checkSent checks that offset off, sent want times, is found exactly
// once — in the window or in the retired set — with that copy count.
func (a *analyzer) checkSent(off uint64, want int) error {
	win := 0
	if ord, ok := a.segIdx[off]; ok {
		win = int(a.segs[ord-a.segBase].sent)
	}
	ret := a.retiredCount(off)
	if win > 0 && ret > 0 {
		return fmt.Errorf("offset %d is both in the window (sent %d) and retired (sent %d)", off, win, ret)
	}
	if win+ret != want {
		return fmt.Errorf("offset %d: scoreboard has %d copies (window %d, retired %d), records have %d",
			off, win+ret, win, ret, want)
	}
	return nil
}

// checkHistory runs checkSent for every offset in sent, and checks
// that the window holds no entry sent does not know.
func (a *analyzer) checkHistory(sent map[uint64]int) error {
	inWindow := 0
	for off, n := range sent {
		if err := a.checkSent(off, n); err != nil {
			return err
		}
		if _, ok := a.segIdx[off]; ok {
			inWindow++
		}
	}
	if inWindow != len(a.segs) {
		return fmt.Errorf("window holds %d entries, only %d of them sent", len(a.segs), inWindow)
	}
	return nil
}

// FeedChecked feeds a fresh analyzer recs one record at a time and
// checks the scoreboard after each: against a full scan, and against a
// shadow count of each offset's transmissions built from the records
// alone. A record that retires history, and the last one, have every
// offset ever sent re-checked; any other record changes only its own
// offset's count, so that offset is checked. FeedChecked is exported
// for the external test package, which drives the workload generator
// (workload imports core).
func FeedChecked(tb testing.TB, inc *Incremental, recs []trace.Record) {
	tb.Helper()
	a := &inc.a
	sent := make(map[uint64]int)
	for i := range recs {
		r := &recs[i]
		data := r.Dir == tcpsim.DirOut && r.Seg.Len > 0
		var off uint64
		if data {
			u := a.u // a copy, so peeking does not move the analyzer's reference
			off = u.Unwrap(r.Seg.Seq)
			sent[off]++
		}
		base := a.segBase
		inc.Feed(r)
		err := a.checkScoreboard()
		switch {
		case err != nil:
		case a.segBase != base || i == len(recs)-1:
			err = a.checkHistory(sent)
		case data:
			err = a.checkSent(off, sent[off])
		}
		if err != nil {
			tb.Fatalf("after record %d of %d: %v", i, len(recs), err)
		}
	}
}

// Synthetic flows: the server's ISN is synISN, segment i is
// segLen-sized and starts at segSeq(i), and the client ACKs a
// 100-byte request.
const (
	synISN = 1000
	segLen = 1460
)

func segSeq(i int) uint32 { return synISN + 1 + uint32(i*segLen) }

func msT(ms float64) sim.Time { return sim.Time(ms * 1e6) }

// synHandshake is the SYN, SYN-ACK and request opening a synthetic
// flow, at 0, 10 and 20 ms: a 10 ms handshake RTT.
func synHandshake() []trace.Record {
	return []trace.Record{
		{T: msT(0), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagSYN, Wnd: 65535}},
		{T: msT(10), Dir: tcpsim.DirOut, Seg: tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: synISN, Ack: 1, Wnd: 65535}},
		{T: msT(20), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: synISN + 1, Len: 100, Wnd: 65535}},
	}
}

// synData is an n-byte data record at wire sequence seq.
func synData(ms float64, seq uint32, n int) trace.Record {
	return trace.Record{T: msT(ms), Dir: tcpsim.DirOut,
		Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: seq, Ack: 101, Len: n, Wnd: 65535}}
}

// synAck is a client ACK of cum carrying blocks as its SACK option.
func synAck(ms float64, cum uint32, blocks ...packet.SACKBlock) trace.Record {
	return trace.Record{T: msT(ms), Dir: tcpsim.DirIn,
		Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: cum, Wnd: 65535, SACK: packet.SACKBlocks(blocks...)}}
}

// pipelined appends to recs segments first..first+n-1, sent every
// 10 ms from start, each ACKed alone 20 ms after it was sent, so every
// ACK is a one-segment edge RTT sample of 20 ms.
func pipelined(recs []trace.Record, start float64, first, n int) []trace.Record {
	for k := 0; k < n+2; k++ {
		t := start + 10*float64(k)
		if k < n {
			recs = append(recs, synData(t, segSeq(first+k), segLen))
		}
		if k >= 2 {
			recs = append(recs, synAck(t, segSeq(first+k-1)))
		}
	}
	return recs
}

// TestScoreboardLongFlow runs the benchmark's periodic-SACKed-loss
// flow: one hole per 64 segments, each fast-retransmitted.
func TestScoreboardLongFlow(t *testing.T) {
	inc := NewIncremental(DefaultConfig())
	FeedChecked(t, inc, longFlow(1024))
	if a := inc.Flush(); a.DataPackets != 1024 || a.RetransPackets != 16 || len(a.Stalls) != 0 {
		t.Fatalf("data=%d retrans=%d stalls=%d, want 1024/16/0", a.DataPackets, a.RetransPackets, len(a.Stalls))
	}
}

// TestScoreboardWrappedISN runs the wrapped-ISN regression flows,
// whose losses, SACK blocks and retransmissions straddle 2^32.
func TestScoreboardWrappedISN(t *testing.T) {
	retrans := 0
	for _, tc := range wrapCases {
		sc := tc.sc
		sc.mutate = wrapISNs
		inc := NewIncremental(DefaultConfig())
		FeedChecked(t, inc, sc.runFlow(t).Records)
		retrans += inc.Flush().RetransPackets
	}
	if retrans == 0 {
		t.Fatal("no retransmission across the wrap; the check is vacuous")
	}
}

// TestScoreboardMemoryBudget bounds the scoreboard by the flight, not
// the flow: over 16k segments the window's backing array stays within
// 4× the largest flight and the retired history within 64 runs.
func TestScoreboardMemoryBudget(t *testing.T) {
	recs := longFlow(1 << 14)
	inc := NewIncremental(DefaultConfig())
	maxFlight, maxCap := 0, 0
	for i := range recs {
		inc.Feed(&recs[i])
		maxFlight = max(maxFlight, inc.a.packetsOut())
		maxCap = max(maxCap, cap(inc.a.segs))
	}
	if maxCap > 4*maxFlight {
		t.Errorf("cap(segs) reached %d, over 4× the largest flight of %d", maxCap, maxFlight)
	}
	if n := len(inc.a.retired); n > 64 {
		t.Errorf("retired set holds %d runs, want ≤ 64", n)
	}
	if a := inc.Flush(); a.DataPackets != 1<<14 || a.RetransPackets != 1<<8 {
		t.Fatalf("data=%d retrans=%d, want %d/%d", a.DataPackets, a.RetransPackets, 1<<14, 1<<8)
	}
}

// TestSegEntrySize: the scoreboard window holds one aSeg per segment in
// flight, so its size is a per-flight term of live_heap_mb on the sick
// replay.
func TestSegEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(aSeg{}); n > 32 {
		t.Errorf("aSeg is %d bytes, want ≤ 32", n)
	}
}

// TestRetireOnEdgeRTTSample: the ACK that retires history also yields
// an edge RTT sample, which reads the acked segment before it leaves
// the window.
func TestRetireOnEdgeRTTSample(t *testing.T) {
	inc := NewIncremental(DefaultConfig())
	// retireMin segments, each ACKed alone: only the last ACK leaves an
	// acked prefix of retireMin.
	FeedChecked(t, inc, pipelined(synHandshake(), 30, 0, retireMin))
	a := inc.Flush()
	if inc.a.segBase != retireMin {
		t.Fatalf("segBase = %d, want %d: the last ACK did not retire", inc.a.segBase, retireMin)
	}
	if len(a.RTTSamplesMS) != retireMin {
		t.Fatalf("%d RTT samples, want %d", len(a.RTTSamplesMS), retireMin)
	}
	for i, v := range a.RTTSamplesMS {
		if v != 20 {
			t.Fatalf("RTT sample %d = %v ms, want 20", i, v)
		}
	}
}

// TestRetiredSegmentResent: a retired segment sent again is a
// retransmission carrying its true copy count, whether it was retired
// inside a run (sent once) or as an exception (retransmitted before its
// ACK); a copy starting inside a run but off its segment grid is a new
// segment.
func TestRetiredSegmentResent(t *testing.T) {
	recs := pipelined(synHandshake(), 30, 0, retireMin)
	// Retransmit segment 5 at 85 ms, before its ACK at 100 ms.
	at := slices.IndexFunc(recs, func(r trace.Record) bool { return r.T > msT(85) })
	recs = slices.Insert(recs, at, synData(85, segSeq(5), segLen))
	last := recs[len(recs)-1].T.Milliseconds() // the ACK that retires all retireMin
	recs = append(recs,
		synData(last+10, segSeq(5), segLen),
		synData(last+20, segSeq(7), segLen),
		synData(last+30, segSeq(7)+700, segLen-700))

	inc := NewIncremental(DefaultConfig())
	rec := flight.NewRecorder(flight.Config{RingSize: 1 << 12})
	inc.SetRecorder(rec)
	FeedChecked(t, inc, recs)
	a := inc.Flush()
	base := inc.a.base
	if inc.a.segBase != retireMin || inc.a.retiredCount(base+5*segLen) != 3 || inc.a.retiredCount(base+7*segLen) != 2 {
		t.Fatalf("segBase = %d, want segments 0..%d retired before the resends", inc.a.segBase, retireMin-1)
	}
	if inc.a.retiredCount(base+7*segLen+700) != 0 || len(inc.a.segs) != 1 {
		t.Fatalf("the off-grid copy is not the window's one entry (window %d)", len(inc.a.segs))
	}
	if a.DataPackets != retireMin+1 || a.RetransPackets != 3 {
		t.Fatalf("data=%d retrans=%d, want %d/3", a.DataPackets, a.RetransPackets, retireMin+1)
	}
	type seg struct{ rel, copies int64 }
	var got []seg
	for _, e := range rec.Events() {
		if e.Kind == flight.KindSeg && e.Name == flight.NameRetransmit {
			got = append(got, seg{e.A, e.C})
		}
	}
	want := []seg{{5 * segLen, 2}, {5 * segLen, 3}, {7 * segLen, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("retransmit events (offset, copies) = %v, want %v", got, want)
	}
}

// TestRetiredStallKeepsDSACKEvidence: an RTO retransmission ends a
// stall, is acked and retired; a DSACK for it inside DSACKHorizon still
// makes the stall spurious (ACK delay/loss), with the same evidence.
func TestRetiredStallKeepsDSACKEvidence(t *testing.T) {
	recs := append(synHandshake(),
		synData(30, segSeq(0), segLen),
		synData(330, segSeq(0), segLen), // RTO retransmission: stall [30, 330] ms
		synAck(340, segSeq(1)))
	recs = pipelined(recs, 350, 1, 70)
	dsack := packet.SACKBlock{Left: segSeq(0), Right: segSeq(1)}
	recs = append(recs, synAck(1070, segSeq(71), dsack), synAck(1080, segSeq(71), dsack))

	inc := NewIncremental(DefaultConfig())
	rec := flight.NewRecorder(flight.Config{})
	inc.SetRecorder(rec)
	FeedChecked(t, inc, recs[:len(recs)-2])
	off0 := inc.a.base
	if _, ok := inc.a.segIdx[off0]; ok || inc.a.retiredCount(off0) != 2 {
		t.Fatalf("segment 0 not retired before the DSACKs (segBase %d)", inc.a.segBase)
	}
	inc.FeedBatch(recs[len(recs)-2:])
	a := inc.Flush()
	if len(a.Stalls) != 1 {
		t.Fatalf("%d stalls, want 1", len(a.Stalls))
	}
	if st := a.Stalls[0]; st.Cause != CauseTimeoutRetrans || st.RetransCause != RetransAckDelayLoss {
		t.Fatalf("stall = %v/%v, want %v/%v", st.Cause, st.RetransCause, CauseTimeoutRetrans, RetransAckDelayLoss)
	}
	want := map[string]string{
		"dsacks_for_seg": flight.V("", 2).Val,
		"dsack_at":       flight.V("", msT(1070)).Val,
	}
	for _, step := range rec.Evidence(0).Decision {
		for _, kv := range step.Vars {
			if w, ok := want[kv.Key]; ok {
				if kv.Val != w {
					t.Errorf("%s = %s, want %s", kv.Key, kv.Val, w)
				}
				delete(want, kv.Key)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("evidence lacks %v", want)
	}
}
