package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// checkScoreboard recomputes by full scan what the analyzer keeps
// incrementally — packets_out, sacked_out, the acked-prefix cursor and
// the window's order flag — checks that window offsets are unique and
// every entry ends at or below maxEnd, checks the retired runs' shape,
// and reports the first disagreement.
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
	sorted := true
	for i := range a.segs {
		g := &a.segs[i]
		if g.end() > a.maxEnd {
			return fmt.Errorf("segs[%d] ends at %d, above maxEnd %d", i, g.end(), a.maxEnd)
		}
		if i > 0 && g.seq <= a.segs[i-1].seq {
			sorted = false
		}
	}
	if a.unsorted == sorted {
		return fmt.Errorf("unsorted = %v on a window whose strict offset order is %v", a.unsorted, sorted)
	}
	if !sorted { // a strictly increasing window has unique offsets
		at := make(map[uint64]int, len(a.segs))
		for i := range a.segs {
			if j, dup := at[a.segs[i].seq]; dup {
				return fmt.Errorf("segs[%d] and segs[%d] both start at offset %d", j, i, a.segs[i].seq)
			}
			at[a.segs[i].seq] = i
		}
	}
	for off := range a.spurious {
		if a.find(off) < 0 {
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

// checkFind checks that find agrees with a full scan at every window
// offset and at offsets between entries: one below and one above each
// entry's start, and its end. Once find returns i for every entry's
// offset (unique, by checkScoreboard), a miss elsewhere is right, so
// only a hit there needs its offset checked. find reads only the
// entries' offsets, maxEnd and unsorted, which only data records and
// retires change.
func (a *analyzer) checkFind() error {
	for i := range a.segs {
		if got := a.find(a.segs[i].seq); got != i {
			return fmt.Errorf("find(%d) = %d, but segs[%d] starts there", a.segs[i].seq, got, i)
		}
	}
	for i := range a.segs {
		g := &a.segs[i]
		for _, off := range [...]uint64{g.seq - 1, g.seq + 1, g.end()} {
			if got := a.find(off); got >= 0 && a.segs[got].seq != off {
				return fmt.Errorf("find(%d) = segs[%d], which starts at %d", off, got, a.segs[got].seq)
			}
		}
	}
	return nil
}

// checkSent checks that offset off, sent want times, is found exactly
// once — in the window or in the retired set — with that copy count.
func (a *analyzer) checkSent(off uint64, want int) error {
	win := 0
	if i := a.find(off); i >= 0 {
		win = int(a.segs[i].sent)
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
		if a.find(off) >= 0 {
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
// offset's count, so that offset is checked. find is checked in full
// after a retire, after the last record and after data below maxEnd,
// the records that move entries or add one out of order; new data
// appends at the top, and checkSent checks find at its offset.
// FeedChecked is exported for the external test package, which drives
// the workload generator (workload imports core).
func FeedChecked(tb testing.TB, inc *Incremental, recs []trace.Record) {
	tb.Helper()
	a := &inc.a
	sent := make(map[uint64]int)
	for i := range recs {
		r := &recs[i]
		data := r.Dir == trace.DirOut && r.Seg.Len > 0
		var off uint64
		if data {
			u := a.u // a copy, so peeking does not move the analyzer's reference
			off = u.Unwrap(r.Seg.Seq)
			sent[off]++
		}
		base, below := a.segBase, data && off < a.maxEnd
		inc.Feed(r)
		err := a.checkScoreboard()
		if err == nil && (below || a.segBase != base || i == len(recs)-1) {
			err = a.checkFind()
		}
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
		{T: msT(0), Dir: trace.DirIn, Seg: trace.Segment{Flags: packet.FlagSYN, Wnd: 65535}},
		{T: msT(10), Dir: trace.DirOut, Seg: trace.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: synISN, Ack: 1, Wnd: 65535}},
		{T: msT(20), Dir: trace.DirIn, Seg: trace.Segment{Flags: packet.FlagACK, Seq: 1, Ack: synISN + 1, Len: 100, Wnd: 65535}},
	}
}

// synData is an n-byte data record at wire sequence seq.
func synData(ms float64, seq uint32, n int) trace.Record {
	return trace.Record{T: msT(ms), Dir: trace.DirOut,
		Seg: trace.Segment{Flags: packet.FlagACK, Seq: seq, Ack: 101, Len: n, Wnd: 65535}}
}

// synAck is a client ACK of cum carrying blocks as its SACK option.
func synAck(ms float64, cum uint32, blocks ...packet.SACKBlock) trace.Record {
	return trace.Record{T: msT(ms), Dir: trace.DirIn,
		Seg: trace.Segment{Flags: packet.FlagACK, Seq: 101, Ack: cum, Wnd: 65535, SACK: packet.SACKBlocks(blocks...)}}
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

// TestSettledStallsLeavePending: a flow of 1,000 timeout
// retransmissions, each followed by 2.1 s of paced traffic — past the
// DSACK horizon — holds at most one unsettled stall at a time, while
// Stalls counts every stall that closed and Flush reports them all.
func TestSettledStallsLeavePending(t *testing.T) {
	const stalls = 1000
	inc := NewIncremental(DefaultConfig())
	feed := func(recs []trace.Record) {
		for i := range recs {
			inc.Feed(&recs[i])
			if n := len(inc.a.pending); n > 1 || cap(inc.a.pending) > 4 {
				t.Fatalf("after %d records: %d unsettled stalls (cap %d)", inc.Records(), n, cap(inc.a.pending))
			}
		}
	}
	feed(synHandshake())
	seg, t0 := 0, 30.0
	for c := 0; c < stalls; c++ {
		// Segment seg, then its retransmission after a 400 ms silence,
		// then an ACK and 210 segments at 10 ms spacing.
		recs := []trace.Record{
			synData(t0, segSeq(seg), segLen),
			synData(t0+400, segSeq(seg), segLen),
			synAck(t0+420, segSeq(seg+1)),
		}
		recs = pipelined(recs, t0+430, seg+1, 210)
		feed(recs)
		if got := inc.Stalls(); got != c+1 {
			t.Fatalf("cycle %d: Stalls() = %d, want %d", c, got, c+1)
		}
		seg += 211
		t0 += 430 + 10*212
	}
	a := inc.Flush()
	if len(a.Stalls) != stalls {
		t.Fatalf("Flush reports %d stalls, want %d", len(a.Stalls), stalls)
	}
	for _, st := range a.Stalls {
		if st.Cause != CauseTimeoutRetrans {
			t.Fatalf("stall %d: cause %v, want %v", st.ID, st.Cause, CauseTimeoutRetrans)
		}
	}
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

// TestScoreboardShrinksAfterFlight: after one 4k-segment flight, a
// flow of small flights holds a window sized by its current flight.
// Every retire leaves cap(segs) within 4× the segments out (at least
// retireMin), and the window rebuilt at the shrink keeps FeedChecked's
// index and ordinal checks.
func TestScoreboardShrinksAfterFlight(t *testing.T) {
	const big = 1 << 12
	recs := synHandshake()
	for i := 0; i < big; i++ {
		recs = append(recs, synData(30+0.001*float64(i), segSeq(i), segLen))
	}
	for i := 0; i < big; i++ {
		recs = append(recs, synAck(40+0.001*float64(i), segSeq(i+1)))
	}
	recs = pipelined(recs, 50, big, 4*retireMin)

	FeedChecked(t, NewIncremental(DefaultConfig()), recs)

	inc := NewIncremental(DefaultConfig())
	a := &inc.a
	peak, retires := 0, 0
	for i := range recs {
		base := a.segBase
		inc.Feed(&recs[i])
		peak = max(peak, cap(a.segs))
		if a.segBase == base {
			continue
		}
		retires++
		if c, out := cap(a.segs), a.packetsOut(); c > 4*max(out, retireMin) {
			t.Fatalf("after the retire at record %d: cap(segs) = %d for %d segments out", i, c, out)
		}
	}
	if peak < big || a.segBase != big+4*retireMin || retires < 8 {
		t.Fatalf("peak cap %d, segBase %d after %d retires: the flow did not fill and drain the window", peak, a.segBase, retires)
	}
}

// TestScoreboardRepacketizedBelowMaxEnd: a retransmission repacketized
// at a new offset inside the window is a new entry below entries sent
// before it, so the window leaves offset order; resends of an entry
// above it and of the new entry are still found. Retiring the window
// restores offset order.
func TestScoreboardRepacketizedBelowMaxEnd(t *testing.T) {
	recs := synHandshake()
	for i := 0; i < 4; i++ {
		recs = append(recs, synData(30+0.1*float64(i), segSeq(i), segLen))
	}
	repack := segSeq(1) + 700
	recs = append(recs,
		synData(40, repack, segLen),
		synData(45, segSeq(3), segLen),
		synData(50, repack, segLen),
		synAck(55, segSeq(4)))
	n := len(recs)
	recs = pipelined(recs, 60, 4, retireMin)

	inc := NewIncremental(DefaultConfig())
	FeedChecked(t, inc, recs[:n])
	if !inc.a.unsorted || len(inc.a.segs) != 5 {
		t.Fatalf("unsorted = %v with %d entries, want an out-of-order window of 5", inc.a.unsorted, len(inc.a.segs))
	}
	inc = NewIncremental(DefaultConfig())
	FeedChecked(t, inc, recs)
	if inc.a.segBase == 0 || inc.a.unsorted {
		t.Fatalf("segBase = %d, unsorted = %v: the window did not retire back into offset order", inc.a.segBase, inc.a.unsorted)
	}
	if a := inc.Flush(); a.DataPackets != retireMin+5 || a.RetransPackets != 2 {
		t.Fatalf("data=%d retrans=%d, want %d/2", a.DataPackets, a.RetransPackets, retireMin+5)
	}
}

// TestScoreboardResendAckedUnretired: a segment acked but not yet
// retired (fewer than retireMin acked) is still a window entry, below
// the cursor lo, and a resend of it is a retransmission of that entry.
func TestScoreboardResendAckedUnretired(t *testing.T) {
	recs := synHandshake()
	for i := 0; i < 4; i++ {
		recs = append(recs, synData(30+0.1*float64(i), segSeq(i), segLen))
	}
	recs = append(recs, synAck(40, segSeq(2)), synData(45, segSeq(0), segLen))

	inc := NewIncremental(DefaultConfig())
	FeedChecked(t, inc, recs)
	if inc.a.lo != 2 || inc.a.segBase != 0 || inc.a.segs[0].sent != 2 {
		t.Fatalf("lo = %d, segBase = %d, segs[0].sent = %d: want the resend counted on the acked entry below lo",
			inc.a.lo, inc.a.segBase, inc.a.segs[0].sent)
	}
	if a := inc.Flush(); a.DataPackets != 4 || a.RetransPackets != 1 {
		t.Fatalf("data=%d retrans=%d, want 4/1", a.DataPackets, a.RetransPackets)
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
	inc := NewIncremental(seriesConfig())
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
	last := float64(recs[len(recs)-1].T) / 1e6 // ms of the ACK that retires all retireMin
	recs = append(recs,
		synData(last+10, segSeq(5), segLen),
		synData(last+20, segSeq(7), segLen),
		synData(last+30, segSeq(7)+700, segLen-700))

	inc := NewIncremental(DefaultConfig())
	rec := flight.NewRecorder(flight.Config{WindowK: len(recs)}) // a window wider than the flow keeps every event
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
// makes the stall spurious (ACK delay/loss). That DSACK settles the
// stall, so the evidence counts it and not the repeat after it.
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
	if inc.a.find(off0) >= 0 || inc.a.retiredCount(off0) != 2 {
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
		"dsacks_for_seg": flight.V("", 1).Val,
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
