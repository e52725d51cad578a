package core

import (
	"slices"
	"sort"

	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// settleReady settles the unsettled stalls whose verdicts are fixed,
// oldest first; a stall waits for those before it (ID order).
func (a *analyzer) settleReady() {
	n := 0
	for n < len(a.pending) && a.settled(&a.pending[n]) {
		a.settle(&a.pending[n])
		n++
	}
	a.pending = slices.Delete(a.pending, 0, n)
}

// settled reports whether no later record can change ps's verdict:
// at close for every cause but a timeout retransmission, and for a
// double one. Else the tail test must be decided — too many segments
// above the loss, a response boundary above it (later ones land at
// the send edge), or snd_nxt past its value at the stall — and fire,
// or a DSACK inside the horizon be stamped, or the flow be past the
// horizon (record times do not decrease).
func (a *analyzer) settled(ps *pendingStall) bool {
	if ps.stall.Cause != CauseTimeoutRetrans || ps.copiesBefore >= 2 {
		return true
	}
	n := len(a.respBounds)
	if ps.segsAboveOutstanding < DupThresh && a.maxEnd == ps.maxEndAtStall &&
		(n == 0 || a.respBounds[n-1] <= ps.endOff) {
		return false
	}
	if tail, _ := a.tail(ps); tail {
		return true
	}
	_, spurious := a.dsackInHorizon(ps)
	return spurious || a.lastT.Sub(ps.stall.End) > DSACKHorizon
}

// settle completes one stall's classification — the top-level cause
// was walked at close — and publishes the verdict to the recorder,
// OnStall and the flow's analysis.
func (a *analyzer) settle(ps *pendingStall) {
	st := ps.stall
	ord := -1
	if st.Cause == CauseTimeoutRetrans {
		st.RetransCause, st.DoubleKind, st.TailState = a.retransCause(ps, ps.trail)
		ord = ps.retransSegIdx
	}
	if a.rec != nil {
		js := st.JSON()
		a.rec.Settle(st.ID, js.Cause, js.SubCause, js.DoubleKind, ps.trail)
	}
	if a.live.OnStall != nil {
		a.live.OnStall(LiveStall{FlowID: a.out.FlowID, Service: a.out.Service, Stall: st})
	}
	a.out.Stalls = append(a.out.Stalls, st)
	a.out.TotalStallTime += st.Duration
	a.retransOrd = append(a.retransOrd, ord)
}

// finish settles the stalls still open and fills what needs the whole
// flow: the stream span and each retransmission's position.
func (a *analyzer) finish() {
	for i := range a.pending {
		a.settle(&a.pending[i])
	}
	a.pending = nil
	if a.haveBase {
		a.out.DataBytes = int64(a.maxEnd - a.base)
	}
	total := float64(max(a.out.DataPackets, 1))
	for i, ord := range a.retransOrd {
		if ord >= 0 {
			a.out.Stalls[i].Position = float64(ord) / total
		}
	}
}

// respEnd returns the end of the response holding unwrapped stream
// offset seq: the first response boundary above it, else snd_nxt so
// far, which at Flush is the flow's final one.
func (a *analyzer) respEnd(seq uint64) uint64 {
	i := sort.Search(len(a.respBounds), func(i int) bool { return a.respBounds[i] > seq })
	if i < len(a.respBounds) {
		return a.respBounds[i]
	}
	return a.maxEnd
}

// isRespHead reports whether unwrapped offset seq starts a response.
func (a *analyzer) isRespHead(seq uint64) bool {
	_, found := slices.BinarySearch(a.respBounds, seq)
	return found || seq == a.base
}

// topCause walks the Figure-5 tree for one stall, reading the
// stall-ending record from the facts captured when the stall closed.
// A non-nil trail records every branch test with the concrete values
// that decided it; classification is identical either way.
func (a *analyzer) topCause(ps *pendingStall, tr *flight.Trail) Cause {
	// Receive-window branch: a closed window at stall start explains
	// the silence regardless of what reopens it (window update or
	// zero-window probe).
	if tr.Check("rwnd == 0 when the silence began (receiver closed the window)",
		ps.stall.Rwnd == 0 && ps.haveBaseAtEnd,
		flight.V("rwnd", ps.stall.Rwnd), flight.V("data_seen", ps.haveBaseAtEnd)) {
		return CauseZeroWindow
	}

	if tr.Check("cur_pkt is outgoing data (server sent after the silence)",
		ps.endDir == trace.DirOut && ps.endLen > 0,
		flight.V("dir", ps.endDir.String()), flight.V("len", ps.endLen),
		flight.V("end_rec", ps.stall.EndRecIdx)) {
		if tr.Check("cur_pkt retransmits a sent, unacked segment",
			ps.retransSegIdx >= 0,
			flight.V("offset", a.rel(ps.endOff)), flight.V("copies_before", ps.copiesBefore)) {
			return CauseTimeoutRetrans
		}
		// New data after silence: the transport was willing but had
		// nothing to send — server-side cause, split by position.
		if tr.Check("cur_pkt starts a response (head-of-response wait)",
			a.isRespHead(ps.endOff),
			flight.V("offset", a.rel(ps.endOff)), flight.V("responses", len(a.respBounds))) {
			return CauseDataUnavailable
		}
		if tr.Check("no data was outstanding when the silence began",
			ps.outstandingAtStart == 0,
			flight.V("packets_out", ps.outstandingAtStart)) {
			return CauseResourceConstraint
		}
		// New data while old data was outstanding: the window opened
		// after a delayed ACK run — network delay.
		tr.Note("new data with old data outstanding: the window opened late (delayed ACKs)")
		return CausePacketDelay
	}

	if tr.Check("cur_pkt is incoming (client broke the silence)",
		ps.endDir == trace.DirIn, flight.V("dir", ps.endDir.String())) {
		if tr.Check("cur_pkt carries a client request",
			ps.endLen > 0, flight.V("len", ps.endLen)) {
			// A client request ends the stall.
			if tr.Check("no response data was outstanding (client was thinking)",
				ps.outstandingAtStart == 0,
				flight.V("packets_out", ps.outstandingAtStart)) {
				return CauseClientIdle
			}
			return CausePacketDelay
		}
		// Pure ACK ends the stall.
		if tr.Check("a pure ACK ended the stall with data outstanding (delayed ACK/packet)",
			ps.outstandingAtStart > 0,
			flight.V("packets_out", ps.outstandingAtStart)) {
			return CausePacketDelay
		}
		return CauseUndetermined
	}

	return CauseUndetermined
}

// retransCause applies the Table-5 precedence to a
// timeout-retransmission stall, optionally recording each examined
// rule into the trail.
func (a *analyzer) retransCause(ps *pendingStall, tr *flight.Trail) (RetransCause, DoubleKind, trace.CongState) {
	// 1. Double retransmission: the packet had been retransmitted
	// before this stall-ending retransmission.
	if tr.Check("T5.1 double: segment was already retransmitted before this stall",
		ps.copiesBefore >= 2,
		flight.V("copies_before", ps.copiesBefore), flight.V("seg_ordinal", ps.retransSegIdx),
		flight.V("first_retrans_by_timeout", ps.firstRetransTimeout)) {
		kind := DoubleFast
		if ps.firstRetransTimeout {
			kind = DoubleTimeout
		}
		return RetransDouble, kind, 0
	}

	// 2. Tail retransmission: every byte of the response was already
	// sent and too few segments sit above the loss to produce
	// dupthres dupacks.
	tail, respEnd := a.tail(ps)
	allSent := ps.maxEndAtStall >= respEnd
	if tr.Check("T5.2 tail: response fully sent and too few segments above the loss",
		tail,
		flight.V("all_sent", allSent), flight.V("snd_nxt", a.rel(ps.maxEndAtStall)),
		flight.V("resp_end", a.rel(respEnd)),
		flight.V("segs_above", ps.segsAboveOutstanding), flight.V("dupthresh", DupThresh)) {
		tailState := ps.stall.CaState
		switch tailState {
		case trace.StateDisorder:
			tailState = trace.StateOpen
		case trace.StateLoss:
			tailState = trace.StateRecovery
		}
		return RetransTail, 0, tailState
	}

	// 3. ACK delay/loss: the retransmission turns out spurious — a
	// DSACK for it arrives shortly after the stall, meaning the data
	// was never lost (Figure 5's "spurious" branch). This must
	// precede the small-window tests: a spurious retransmission
	// almost always happens at small in-flight and would otherwise
	// be swallowed by them.
	spuriousAt, spurious := a.dsackInHorizon(ps)
	if tr.Check("T5.3 spurious: a DSACK covered the retransmission within the horizon",
		spurious,
		flight.V("dsacks_for_seg", len(ps.spuriousAt)), flight.V("dsack_at", spuriousAt),
		flight.V("horizon", DSACKHorizon)) {
		return RetransAckDelayLoss, 0, 0
	}

	// 4/5. Small in-flight: fast retransmit starved of dupacks.
	if tr.Check("T5.4 small window: in_flight below the 4-segment boundary",
		ps.stall.InFlight < SmallInFlight,
		flight.V("in_flight", ps.stall.InFlight), flight.V("boundary", SmallInFlight)) {
		limit := SmallInFlight * a.mss
		if tr.Check("T5.5 rwnd-limited: rwnd under 4 MSS and at or below cwnd",
			ps.stall.Rwnd > 0 && ps.stall.Rwnd < limit && ps.stall.Rwnd <= ps.stall.CwndEst*a.mss,
			flight.V("rwnd", ps.stall.Rwnd), flight.V("limit", limit),
			flight.V("cwnd_bytes", ps.stall.CwndEst*a.mss)) {
			return RetransSmallRwnd, 0, 0
		}
		return RetransSmallCwnd, 0, 0
	}

	// 6. Continuous loss: a full window (≥ SmallInFlight segments)
	// outstanding with zero SACK/dupack feedback.
	if tr.Check("T5.6 continuous loss: full window outstanding, zero SACK/dupack feedback",
		ps.outstandingAtStart >= SmallInFlight &&
			ps.sackedOutAtStart == 0 && ps.dupacksAtStart == 0,
		flight.V("packets_out", ps.outstandingAtStart),
		flight.V("sacked_out", ps.sackedOutAtStart), flight.V("dupacks", ps.dupacksAtStart)) {
		return RetransContinuousLoss, 0, 0
	}

	// 7. Undetermined.
	tr.Note("T5.7 no rule matched: undetermined")
	return RetransUndetermined, 0, 0
}

// tail is Table 5's tail test: the response holding the retransmitted
// segment was fully sent when the stall began, and too few segments
// sat above it to produce dupthresh dupacks. It also returns the
// response end the test read.
func (a *analyzer) tail(ps *pendingStall) (bool, uint64) {
	respEnd := a.respEnd(ps.endOff)
	return ps.maxEndAtStall >= respEnd && ps.segsAboveOutstanding < DupThresh, respEnd
}

// dsackInHorizon returns the first DSACK covering the retransmission
// within the horizon after the stall, if one has arrived.
func (a *analyzer) dsackInHorizon(ps *pendingStall) (sim.Time, bool) {
	for _, t := range ps.spuriousAt {
		if t > ps.stall.End && t.Sub(ps.stall.End) <= DSACKHorizon {
			return t, true
		}
	}
	return 0, false
}
