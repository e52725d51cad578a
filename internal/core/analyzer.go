package core

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// Config parameterizes the analysis. The TCP stack the analyzer
// mimics is fixed: the constants below and trace's MinRTO, InitRTO
// and MaxRTO.
type Config struct {
	// Tau is the stall threshold multiplier: a gap is a stall when it
	// exceeds min(Tau·SRTT, RTO). Zero selects trace.DefaultTau, the
	// paper's 2.
	Tau float64
	// PerACKSeries keeps FlowAnalysis's per-ACK series (RTTSamplesMS,
	// RTOSamplesMS, InFlightOnAck), which grow with the flow's length.
	// The paper's figures read them; a monitor leaves it off.
	PerACKSeries bool
}

// The paper's 2.6.32 kernel, as the analyzer mimics it.
const (
	// InitCwnd seeds the congestion-window mimic.
	InitCwnd = 3
	// DupThresh is the fast-retransmit threshold mimic.
	DupThresh = 3
	// SmallInFlight is the "small window" boundary in segments
	// (4 MSS in the paper).
	SmallInFlight = 4
	// DSACKHorizon bounds how long after a retransmission a DSACK
	// still marks it spurious.
	DSACKHorizon = 2 * time.Second
)

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config { return Config{Tau: trace.DefaultTau} }

// aSeg is the replayer's per-segment scoreboard entry, 32 bytes. seq
// is an unwrapped stream offset (low 32 bits = wire value), so entries
// stay distinct even when a >4 GiB flow reuses wire sequence numbers.
// A segment's DSACK stamps live in the analyzer's spurious table, not
// here: almost no segment is ever DSACKed.
type aSeg struct {
	seq      uint64
	lastSent sim.Time
	len      int32
	sent     int32 // transmissions seen (1 = original only)
	sacked   bool
	acked    bool
	// firstRetransTimeout records whether the FIRST retransmission
	// ended a stall (timeout-driven) — the f-double/t-double split.
	firstRetransTimeout bool
}

func (g *aSeg) end() uint64 { return g.seq + uint64(g.len) }

// retiredRun is n contiguous retired segments of segLen bytes each,
// the first starting at offset start.
type retiredRun struct {
	start  uint64
	segLen int
	n      int
}

func (r *retiredRun) end() uint64 { return r.start + uint64(r.segLen)*uint64(r.n) }

// retireMin is the shortest acked prefix newAck retires; once it is
// also half the window, sliding the window down costs at most one
// copy per retired entry.
const retireMin = 64

// pendingStall is a closed stall whose verdict the records fed so far
// do not yet fix (see settled).
type pendingStall struct {
	stall Stall
	// endDir/endLen/endOff capture the stall-ending record (cur_pkt):
	// its direction, payload length and — for outgoing data — the
	// unwrapped stream offset at the moment the stall closed. Holding
	// these here frees classification from the record slice, so the
	// incremental analyzer never needs the flow history.
	endDir trace.Dir
	endLen int
	endOff uint64
	// retransSegIdx (the segment's ordinal, or -1), copiesBefore,
	// retransLen and spuriousAt describe the stall-ending
	// retransmission, whose offset is endOff. The stall owns these
	// facts, so classification never reads the scoreboard, which
	// retires the segment once it is acked; DSACKs arriving after the
	// close are stamped on spuriousAt directly.
	retransSegIdx       int
	copiesBefore        int
	retransLen          int
	spuriousAt          []sim.Time
	firstRetransTimeout bool
	// sackedDuringStall reports whether any SACK progress arrived in
	// the stall window (continuous-loss test).
	sackedOutAtStart     int
	dupacksAtStart       int
	outstandingAtStart   int
	segsAboveOutstanding int
	maxEndAtStall        uint64
	// haveBaseAtEnd freezes whether any data had been seen once the
	// stall-ending record was processed, so classification reads the
	// same value whenever it runs.
	haveBaseAtEnd bool
	// trail records the decision path when a recorder is attached: the
	// Figure-5 walk at close, the Table-5 walk at settlement.
	trail *flight.Trail
}

// analyzer replays one flow.
type analyzer struct {
	cfg Config
	mss int

	// segs is the scoreboard window over unacked data: entry i is the
	// segment with ordinal segBase+i (its rank in first-send order).
	// Like the kernel freeing a cumulatively acked skb, newAck retires
	// the acked prefix, so the window holds about one flight. First-send
	// order is offset order unless a repacketized retransmission starts
	// at a new offset below an entry; unsorted records that case, and
	// find reads it to choose between binary search and a scan.
	segs     []aSeg
	segBase  int
	unsorted bool

	// spurious (made on first use) maps a window entry's offset to the
	// times a DSACK covered it while it was unacked; a stall closing on
	// the segment takes a copy, and retire deletes the retired
	// prefix's keys, so every key is a window offset.
	spurious map[uint64][]sim.Time

	// The scoreboard's kernel-style counters and acked-prefix cursor:
	// unacked is packets_out and sackedUnacked is sacked_out, kept
	// current where acked/sacked are set instead of rescanned per ACK;
	// every entry of segs[:lo] is acked, so the ACK-time scans start
	// at lo and do not grow with the flow's length.
	unacked       int
	sackedUnacked int
	lo            int

	// The retired set answers the one question later records still ask
	// of acked history — was this exact offset sent, and how often.
	// retired holds sorted, non-overlapping runs of segments retired in
	// offset order; retiredSent (made on first use) holds the count of
	// every retired segment sent more than once or retired below
	// retiredEnd, and overrides the runs' implicit count of one.
	// retiredEnd is the highest end of any retired segment.
	retired     []retiredRun
	retiredSent map[uint64]int
	retiredEnd  uint64

	// u maps wire sequence/ACK values of the server's data stream onto
	// monotonic uint64 offsets; every scoreboard comparison below is in
	// offset space, so wrapped ISNs and >4 GiB flows replay correctly.
	u seqspace.Unwrapper

	haveBase bool
	base     uint64
	sndUna   uint64
	maxEnd   uint64

	dupacks    int
	caState    trace.CongState
	recoverSeq uint64

	cwnd     float64
	ssthresh float64

	srtt       time.Duration
	rttvar     time.Duration
	hasRTT     bool
	rto        time.Duration
	rtoBackoff int

	rwnd     int
	haveRwnd bool

	// respBounds[i] is the unwrapped stream offset where response i
	// starts. A boundary is the stream base or snd_nxt when a request
	// arrives, so the slice is ascending.
	respBounds []uint64

	lastInT sim.Time
	prevWnd int

	synackAt  sim.Time
	rttSeeded bool

	// tsOff maps the server's timestamp clock onto record time: it is
	// the least r.T − TSVal over outbound segments, so a TSEcr echoed
	// back was sent at about TSEcr + tsOff. A capture's clock and a
	// connection's timestamp clock start apart (Linux randomises the
	// latter per connection); the simulator's coincide, so there it
	// is 0.
	tsOff     time.Duration
	haveTSOff bool

	// firstT/lastT/nRecs replace the record slice: the state machine
	// only ever looks one record back.
	firstT sim.Time
	lastT  sim.Time
	nRecs  int

	// curT is the record timestamp currently being processed (event
	// attribution); stallSeq issues flow-scoped monotonic stall IDs,
	// and the latest stall closed at lastStallEnd.
	curT         sim.Time
	stallSeq     int
	lastStallEnd sim.Time

	// rec, when non-nil, is the flight recorder receiving typed
	// events, record windows and per-stall decision evidence. The
	// nil case is the hot path: every emission site is one pointer
	// test.
	rec *flight.Recorder

	// pending holds the unsettled stalls in ID order; settled ones
	// leave from the front, into out.Stalls. holdUntilFlush (tests
	// only) keeps them all until Flush: the reference for settlement.
	pending        []pendingStall
	holdUntilFlush bool
	out            FlowAnalysis
	// retransOrd[i] is the ordinal of the segment out.Stalls[i]
	// retransmitted, or -1; Flush turns it into the stall's Position.
	retransOrd []int

	// live is the Incremental this analyzer runs in; its OnStall
	// receives each stall as it settles.
	live *Incremental
}

// Analyze runs TAPO on one flow. It is the batch entry point and is
// defined as "stream then flush": every record is fed through the
// same incremental state machine the live monitor uses, so the two
// paths cannot diverge.
func Analyze(f *trace.Flow, cfg Config) *FlowAnalysis {
	inc := NewIncremental(cfg)
	inc.SetMeta(FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	inc.FeedBatch(f.Records)
	return inc.Flush()
}

// AnalyzeFlight is Analyze with a flight recorder attached: the
// returned recorder holds the per-stall evidence (decision paths,
// record windows) and the flow's last event window. Apart from the extra
// Stall.ID/Evidence references, the analysis itself is byte-identical
// to Analyze's.
func AnalyzeFlight(f *trace.Flow, cfg Config, fcfg flight.Config) (*FlowAnalysis, *flight.Recorder) {
	inc := NewIncremental(cfg)
	inc.SetMeta(FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	rec := flight.NewRecorder(fcfg)
	inc.SetRecorder(rec)
	inc.FeedBatch(f.Records)
	return inc.Flush(), rec
}

// threshold is the stall boundary min(τ·SRTT, RTO).
func (a *analyzer) threshold() time.Duration {
	if !a.hasRTT {
		return a.rto
	}
	th := time.Duration(a.cfg.Tau * float64(a.srtt))
	if a.rto < th {
		th = a.rto
	}
	return th
}

// feed advances the state machine by one record. It is the only way
// records enter the analyzer — the batch replay and the live monitor
// both call it, in record order.
func (a *analyzer) feed(r *trace.Record) {
	a.curT = r.T
	if a.rec != nil {
		a.rec.Sample(a.nRecs, r)
	}
	closed := false
	if a.nRecs > 0 {
		gap := r.T.Sub(a.lastT)
		if th := a.threshold(); gap > th {
			a.onStall(a.nRecs, a.lastT, r)
			closed = true
			if a.rec != nil {
				id := int64(a.pending[len(a.pending)-1].stall.ID)
				a.rec.Emit(a.nRecs-1, a.lastT, flight.KindStallOpen, flight.NameStallOpen,
					int64(gap/time.Microsecond), int64(th/time.Microsecond), id)
				a.rec.Emit(a.nRecs, r.T, flight.KindStallClose, flight.NameStallClose,
					id, int64(gap/time.Microsecond), 0)
			}
		}
	} else {
		a.firstT = r.T
	}
	switch r.Dir {
	case trace.DirOut:
		a.processOut(r)
	case trace.DirIn:
		a.processIn(r)
	}
	a.lastT = r.T
	a.nRecs++
	// Facts frozen after the closing record is processed: a stall
	// ending at the flow's first data packet needs that record's own
	// processing to anchor the first response boundary (isRespHead)
	// and to settle haveBase, and its evidence keeps the events that
	// processing emitted. The top-level cause is final from here on.
	if closed {
		ps := &a.pending[len(a.pending)-1]
		ps.haveBaseAtEnd = a.haveBase
		if a.rec != nil {
			ps.trail = &flight.Trail{}
			st := &ps.stall
			a.rec.StallClosed(*st.Evidence, st.EndRecIdx-1, st.EndRecIdx, st.Start, st.End)
		}
		ps.stall.Cause = a.topCause(ps, ps.trail)
	}
	if len(a.pending) > 0 && !a.holdUntilFlush {
		a.settleReady()
	}
}

// emit forwards one typed event to the flight recorder; with no
// recorder attached it is a single pointer test.
func (a *analyzer) emit(k flight.Kind, name flight.Name, v1, v2, v3 int64) {
	if a.rec == nil {
		return
	}
	a.rec.Emit(a.nRecs, a.curT, k, name, v1, v2, v3)
}

// rel maps an unwrapped stream offset to a position relative to the
// flow's first data byte — the coordinate evidence and events use.
func (a *analyzer) rel(off uint64) int64 {
	if !a.haveBase {
		return 0
	}
	return int64(off - a.base)
}

// onStall captures a stall event; settle classifies it once the
// records that follow fix its verdict. cur is the record ending the
// stall.
func (a *analyzer) onStall(endIdx int, start sim.Time, cur *trace.Record) {
	id := a.stallSeq
	a.stallSeq++
	a.lastStallEnd = cur.T
	ps := pendingStall{
		stall: Stall{
			ID:         id,
			Start:      start,
			End:        cur.T,
			Duration:   cur.T.Sub(start),
			EndRecIdx:  endIdx,
			CaState:    a.caState,
			InFlight:   a.inFlight(),
			PacketsOut: a.packetsOut(),
			Rwnd:       a.rwnd,
			CwndEst:    int(a.cwnd),
			Position:   -1,
		},
		endDir:             cur.Dir,
		endLen:             cur.Seg.Len,
		retransSegIdx:      -1,
		sackedOutAtStart:   a.sackedOut(),
		dupacksAtStart:     a.dupacks,
		outstandingAtStart: a.packetsOut(),
		maxEndAtStall:      a.maxEnd,
	}
	// Is cur_pkt a retransmission of an already-sent, unacked segment?
	// Retired segments are all acked, so the window is the only place
	// to look.
	if cur.Dir == trace.DirOut && cur.Seg.Len > 0 {
		ps.endOff = a.u.Unwrap(cur.Seg.Seq)
		if i := a.find(ps.endOff); i >= 0 && !a.segs[i].acked {
			g := &a.segs[i]
			ps.retransSegIdx = a.segBase + i
			ps.copiesBefore = int(g.sent)
			ps.retransLen = int(g.len)
			ps.spuriousAt = slices.Clone(a.spurious[g.seq])
			ps.firstRetransTimeout = g.firstRetransTimeout
			ps.segsAboveOutstanding = a.segsAbove(g.seq)
		}
	}
	if a.rec != nil {
		ps.stall.Evidence = &flight.Ref{Flow: a.out.FlowID, Stall: id}
	}
	a.pending = append(a.pending, ps)
}

// segsAbove counts distinct sent, unacked segments strictly above seq.
func (a *analyzer) segsAbove(seq uint64) int {
	n := 0
	for i := a.lo; i < len(a.segs); i++ {
		g := &a.segs[i]
		if g.seq > seq && !g.acked {
			n++
		}
	}
	return n
}

// sackedOut is the kernel's sacked_out: SACKed, not yet acked.
func (a *analyzer) sackedOut() int { return a.sackedUnacked }

// packetsOut is snd_nxt − snd_una in segments.
func (a *analyzer) packetsOut() int { return a.unacked }

// inFlight evaluates Equation 1 with the replayer's best estimates:
// packets_out + retrans_out − (sacked_out + lost_out). The replayer
// approximates lost_out as segments that were retransmitted (known
// lost) and retrans_out likewise, which cancels; the dominant terms
// are packets_out − sacked_out.
func (a *analyzer) inFlight() int {
	fl := a.packetsOut() - a.sackedOut()
	if fl < 0 {
		fl = 0
	}
	return fl
}

func (a *analyzer) processOut(r *trace.Record) {
	seg := &r.Seg
	if seg.TSVal > 0 {
		if d := r.T.Sub(seg.TSVal); !a.haveTSOff || d < a.tsOff {
			a.tsOff, a.haveTSOff = d, true
		}
	}
	if seg.Len == 0 {
		if seg.Flags.Has(packet.FlagSYN) {
			// The SYN-ACK carries the server's ISN; seed the unwrapper
			// here so the first data byte (ISN+1) lands next to it.
			a.u.Unwrap(seg.Seq)
			a.synackAt = r.T
		}
		return // pure ACK, probe, SYN-ACK, FIN
	}
	off := a.u.Unwrap(seg.Seq)
	if !a.haveBase {
		a.haveBase = true
		a.base = off
		a.sndUna = off
		a.maxEnd = off
		// The first response starts at the first data byte; requests
		// seen before any data anchor here too.
		a.respBounds = append(a.respBounds, off)
	}
	// Was this exact offset sent before: in the window, else in the
	// retired set, else it is a new segment.
	var g *aSeg
	sent := 1
	if i := a.find(off); i >= 0 {
		g = &a.segs[i]
		g.sent++
		g.lastSent = r.T
		sent = int(g.sent)
	} else if n := a.retiredCount(off); n > 0 {
		sent = n + 1
		a.setRetiredSent(off, sent)
	} else {
		if k := len(a.segs) - 1; k >= 0 && off < a.segs[k].seq {
			a.unsorted = true
		}
		a.segs = append(a.segs, aSeg{
			seq:      off,
			len:      int32(seg.Len),
			sent:     1,
			lastSent: r.T,
		})
		a.unacked++
		a.out.DataPackets++
	}
	if off+uint64(seg.Len) > a.maxEnd {
		a.maxEnd = off + uint64(seg.Len)
	}
	if sent == 1 {
		a.emit(flight.KindSeg, flight.NameDataSent, a.rel(off), int64(seg.Len), 1)
	}
	if sent > 1 {
		// Retransmission.
		a.out.RetransPackets++
		// A copy that ended a stall is a timeout retransmission.
		isTimeout := a.stallSeq > 0 && a.lastStallEnd == r.T
		// A retired segment is acked and never ends a stall again, so
		// it keeps no f-double/t-double fact.
		if sent == 2 && g != nil {
			g.firstRetransTimeout = isTimeout
		}
		a.emit(flight.KindSeg, flight.NameRetransmit, a.rel(off), int64(seg.Len), int64(sent))
		if isTimeout {
			// Mimic tcp_enter_loss.
			ms := float64(a.rto) / 1e6
			a.out.rto.add(ms)
			if a.cfg.PerACKSeries {
				a.out.RTOSamplesMS = append(a.out.RTOSamplesMS, ms)
			}
			a.emit(flight.KindState, flight.NameEnterLoss, int64(a.caState), int64(trace.StateLoss), int64(a.rtoBackoff+1))
			a.caState = trace.StateLoss
			a.recoverSeq = a.maxEnd
			a.ssthresh = maxf(float64(a.inFlight())/2, 2)
			a.cwnd = 1
			a.dupacks = 0
			a.rtoBackoff++
			a.rto *= 2
			if a.rto > trace.MaxRTO {
				a.rto = trace.MaxRTO
			}
			a.emit(flight.KindCwnd, flight.NameLossReset, int64(a.cwnd), int64(a.ssthresh), int64(a.rto/time.Microsecond))
		} else if a.caState != trace.StateLoss && a.caState != trace.StateRecovery {
			// Fast retransmit observed: Recovery.
			a.enterRecovery()
		}
	}
}

func (a *analyzer) enterRecovery() {
	a.emit(flight.KindState, flight.NameEnterRecovery, int64(a.caState), int64(trace.StateRecovery), 0)
	a.caState = trace.StateRecovery
	a.recoverSeq = a.maxEnd
	a.ssthresh = maxf(float64(a.inFlight())/2, 2)
	a.cwnd = a.ssthresh
	a.emit(flight.KindCwnd, flight.NameRecoveryHalve, int64(a.cwnd), int64(a.ssthresh), int64(a.rto/time.Microsecond))
}

func (a *analyzer) processIn(r *trace.Record) {
	seg := &r.Seg
	a.lastInT = r.T

	if seg.Flags.Has(packet.FlagSYN) {
		if a.out.InitRwnd == 0 {
			a.out.InitRwnd = seg.Wnd
		}
		a.rwnd = seg.Wnd
		a.haveRwnd = true
		return
	}

	// Handshake RTT seed: the first post-SYN incoming segment
	// acknowledges the SYN-ACK, as in the Linux setup path.
	if !a.rttSeeded && a.synackAt > 0 {
		a.rttSeeded = true
		a.rttSample(r.T.Sub(a.synackAt))
	}

	prevRwnd := a.rwnd
	a.rwnd = seg.Wnd
	a.haveRwnd = true
	if seg.Wnd == 0 {
		a.out.ZeroRwndSeen = true
		if prevRwnd != 0 {
			a.emit(flight.KindState, flight.NameZeroWindow, int64(prevRwnd), 0, 0)
		}
	} else if prevRwnd == 0 && a.out.ZeroRwndSeen {
		a.emit(flight.KindState, flight.NameWindowReopen, 0, int64(seg.Wnd), 0)
	}

	if seg.Len > 0 && a.haveBase {
		// A client request: the next response starts at the current
		// snd_nxt. Requests arriving before any response data map to
		// the stream base, where the first response starts.
		a.respBounds = append(a.respBounds, a.maxEnd)
	}

	// ACK values and SACK edges live in the server's data sequence
	// space: unwrap them with the same unwrapper as outgoing data.
	var ack uint64
	hasAck := seg.Flags.Has(packet.FlagACK)
	if hasAck {
		ack = a.u.Unwrap(seg.Ack)
	}

	// DSACK detection (RFC 2883): first block at/below the ACK or
	// contained in the second block. Wire-space modular comparisons
	// suffice here — the blocks sit within one window of each other.
	dsacked := false
	sblocks := seg.SACK.Slice()
	if len(sblocks) > 0 {
		b0 := sblocks[0]
		if (hasAck && seqspace.LessEq(b0.Right, seg.Ack)) ||
			(len(sblocks) > 1 && seqspace.LessEq(sblocks[1].Left, b0.Left) &&
				seqspace.LessEq(b0.Right, sblocks[1].Right)) {
			dsacked = true
			l0, r0 := a.u.Unwrap(b0.Left), a.u.Unwrap(b0.Right)
			// A stamp is read only through a stall that closed on the
			// segment, which copied the stamps so far: stamp the
			// unsettled ones, and the unacked segments a stall may
			// still close on. An acked segment never ends a stall
			// again.
			for i := a.lo; i < len(a.segs); i++ {
				g := &a.segs[i]
				if !g.acked && g.seq >= l0 && g.end() <= r0 {
					if a.spurious == nil {
						a.spurious = make(map[uint64][]sim.Time)
					}
					a.spurious[g.seq] = append(a.spurious[g.seq], r.T)
				}
			}
			for i := range a.pending {
				ps := &a.pending[i]
				if ps.retransSegIdx >= 0 && ps.endOff >= l0 && ps.endOff+uint64(ps.retransLen) <= r0 {
					ps.spuriousAt = append(ps.spuriousAt, r.T)
				}
			}
			a.emit(flight.KindSack, flight.NameDSACK, a.rel(l0), int64(r0-l0), int64(a.dupacks))
		}
	}

	// SACK marking.
	sackedNew := false
	sackedCount := 0
	for bi, b := range sblocks {
		if dsacked && bi == 0 {
			continue
		}
		l, rr := a.u.Unwrap(b.Left), a.u.Unwrap(b.Right)
		for i := a.lo; i < len(a.segs); i++ {
			g := &a.segs[i]
			if g.acked || g.sacked {
				continue
			}
			if g.seq >= l && g.end() <= rr {
				g.sacked = true
				sackedNew = true
				sackedCount++
			}
		}
	}
	a.sackedUnacked += sackedCount
	if sackedCount > 0 {
		a.emit(flight.KindSack, flight.NameSACKMark, int64(sackedCount), 0, int64(a.dupacks))
	}

	switch {
	case a.haveBase && hasAck && ack > a.sndUna:
		a.newAck(r, seg, ack)
	case a.haveBase && hasAck && ack == a.sndUna && seg.Len == 0 &&
		a.packetsOut() > 0 && (sackedNew || len(sblocks) > 0 || seg.Wnd == prevRwnd):
		a.dupacks++
		a.emit(flight.KindAck, flight.NameDupack, int64(a.dupacks), DupThresh, 0)
		if a.caState == trace.StateOpen {
			a.emit(flight.KindState, flight.NameEnterDisorder, int64(trace.StateOpen), int64(trace.StateDisorder), 0)
			a.caState = trace.StateDisorder
		}
		if a.caState == trace.StateDisorder && a.dupacks >= DupThresh {
			a.enterRecovery()
		}
	}

	// Figure 11: in_flight evaluated on each ACK.
	if a.cfg.PerACKSeries {
		a.out.InFlightOnAck = append(a.out.InFlightOnAck, a.inFlight())
	}
}

func (a *analyzer) newAck(r *trace.Record, seg *trace.Segment, ack uint64) {
	newlyAcked := 0
	var edge *aSeg
	for i := a.lo; i < len(a.segs); i++ {
		g := &a.segs[i]
		if !g.acked && g.end() <= ack {
			g.acked = true
			newlyAcked++
			if g.sacked {
				a.sackedUnacked--
			}
			if g.end() == ack {
				edge = g
			}
		}
	}
	a.unacked -= newlyAcked
	for a.lo < len(a.segs) && a.segs[a.lo].acked {
		a.lo++
	}
	a.sndUna = ack
	a.dupacks = 0
	a.rtoBackoff = 0

	// RTT sampling. Prefer timestamps (unambiguous even across
	// cumulative-ACK jumps) once tsOff is known; fall back to the
	// ack-edge segment when it was never retransmitted and the advance
	// is a normal 1–2 segment step (a jump's edge segment sat in the
	// receiver's out-of-order queue and would inflate the sample). A
	// timestamp sample outside (0, trace.MaxTSRTT] falls back too: it
	// is what a TSval that wrapped 2^32 ticks after tsOff was set
	// produces, and every later echo would give one.
	var rtt time.Duration
	if seg.TSEcr > 0 && a.haveTSOff {
		if rtt = r.T.Sub(seg.TSEcr) - a.tsOff; rtt > trace.MaxTSRTT {
			rtt = 0
		}
	}
	if rtt <= 0 && edge != nil && edge.sent == 1 && newlyAcked <= 2 {
		rtt = r.T.Sub(edge.lastSent)
	}
	if rtt > 0 {
		a.rttSample(rtt)
		ms := float64(rtt) / 1e6
		a.out.rtt.add(ms)
		if a.cfg.PerACKSeries {
			a.out.RTTSamplesMS = append(a.out.RTTSamplesMS, ms)
		}
	}

	// State transitions.
	switch a.caState {
	case trace.StateRecovery, trace.StateLoss:
		if ack >= a.recoverSeq {
			a.emit(flight.KindState, flight.NameRecoveryPointAcked, int64(a.caState), int64(trace.StateOpen), 0)
			a.caState = trace.StateOpen
			a.cwnd = maxf(a.ssthresh, 2)
		}
	case trace.StateDisorder:
		a.emit(flight.KindState, flight.NameDisorderCleared, int64(trace.StateDisorder), int64(trace.StateOpen), 0)
		a.caState = trace.StateOpen
	}
	if a.caState == trace.StateOpen {
		for i := 0; i < newlyAcked; i++ {
			if a.cwnd < a.ssthresh {
				a.cwnd++
			} else {
				a.cwnd += 1 / a.cwnd
			}
		}
	}
	a.emit(flight.KindAck, flight.NameAckAdvance, a.rel(ack), int64(newlyAcked), int64(a.cwnd))

	// Retire last: edge points into segs.
	if a.lo >= retireMin && 2*a.lo >= len(a.segs) {
		a.retire()
	}
}

// find returns the index in segs of the window entry starting at off,
// or -1. Every entry ends at or below maxEnd, so new data needs no
// search; a window in offset order is binary-searched, and only one
// holding an out-of-order entry is scanned — the cost every ACK's
// scans already pay.
func (a *analyzer) find(off uint64) int {
	if off >= a.maxEnd {
		return -1
	}
	if a.unsorted {
		for i := range a.segs {
			if a.segs[i].seq == off {
				return i
			}
		}
		return -1
	}
	lo, hi := 0, len(a.segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.segs[m].seq < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(a.segs) && a.segs[lo].seq == off {
		return lo
	}
	return -1
}

// retire moves the acked prefix segs[:lo] into the retired set and
// slides the window down over it, then settles whether what is left is
// in offset order. Once the window's backing array is over 4× what the
// window needs, it is reallocated at 2×, so a flow's scoreboard follows
// its current flight, not the largest it ever had.
func (a *analyzer) retire() {
	for i := 0; i < a.lo; i++ {
		g := &a.segs[i]
		delete(a.spurious, g.seq)
		a.retireSeg(g)
	}
	a.segBase += a.lo
	live := a.segs[a.lo:]
	a.lo = 0
	if a.unsorted {
		a.unsorted = !slices.IsSortedFunc(live, func(x, y aSeg) int { return cmp.Compare(x.seq, y.seq) })
	}
	if need := max(len(live), retireMin); cap(a.segs) > 4*need {
		a.segs = append(make([]aSeg, 0, 2*need), live...)
		return
	}
	n := copy(a.segs, live)
	clear(a.segs[n:])
	a.segs = a.segs[:n]
}

// retireSeg adds one acked segment to the retired set. A segment at or
// above retiredEnd extends the last run when it is contiguous with it
// and of the same length, else starts a new one; below retiredEnd
// (retired out of order, or overlapping a run) it is an exception.
func (a *analyzer) retireSeg(g *aSeg) {
	if g.seq < a.retiredEnd {
		a.setRetiredSent(g.seq, int(g.sent))
		a.retiredEnd = max(a.retiredEnd, g.end())
		return
	}
	if k := len(a.retired) - 1; k >= 0 && a.retired[k].end() == g.seq && int(g.len) == a.retired[k].segLen {
		a.retired[k].n++
	} else {
		a.retired = append(a.retired, retiredRun{start: g.seq, segLen: int(g.len), n: 1})
	}
	a.retiredEnd = g.end()
	if g.sent > 1 {
		a.setRetiredSent(g.seq, int(g.sent))
	}
}

// setRetiredSent records the copy count of the retired segment at off.
func (a *analyzer) setRetiredSent(off uint64, sent int) {
	if a.retiredSent == nil {
		a.retiredSent = make(map[uint64]int)
	}
	a.retiredSent[off] = sent
}

// retiredCount reports how many times the retired segment starting at
// off was sent, or 0 when no retired segment starts there: an offset
// inside a run but off its segment grid is not a retired segment.
func (a *analyzer) retiredCount(off uint64) int {
	if off >= a.retiredEnd {
		return 0
	}
	if n, ok := a.retiredSent[off]; ok {
		return n
	}
	i := sort.Search(len(a.retired), func(i int) bool { return a.retired[i].end() > off })
	if i < len(a.retired) {
		if r := &a.retired[i]; off >= r.start && (off-r.start)%uint64(r.segLen) == 0 {
			return 1
		}
	}
	return 0
}

// rttSample applies RFC 6298.
func (a *analyzer) rttSample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !a.hasRTT {
		a.srtt = rtt
		a.rttvar = rtt / 2
		a.hasRTT = true
	} else {
		d := a.srtt - rtt
		if d < 0 {
			d = -d
		}
		a.rttvar = (3*a.rttvar + d) / 4
		a.srtt = (7*a.srtt + rtt) / 8
	}
	// Mirror the kernel: RTO = SRTT + max(4·RTTVAR, minRTO).
	v := 4 * a.rttvar
	if v < trace.MinRTO {
		v = trace.MinRTO
	}
	rto := a.srtt + v
	for i := 0; i < a.rtoBackoff; i++ {
		rto *= 2
	}
	if rto > trace.MaxRTO {
		rto = trace.MaxRTO
	}
	a.rto = rto
	a.emit(flight.KindRTT, flight.NameRTTSample,
		int64(a.srtt/time.Microsecond), int64(a.rttvar/time.Microsecond), int64(a.rto/time.Microsecond))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
