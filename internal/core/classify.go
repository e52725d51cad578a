package core

import (
	"sort"

	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
)

// finalize resolves response boundaries, classifies every pending
// stall with the Figure-5 tree and Table-5 precedence, and fills the
// flow-level aggregates. With a flight recorder attached, each
// stall's settled decision path replaces the provisional one captured
// at close time.
func (a *analyzer) finalize() {
	a.out.DataBytes = int64(a.maxEnd - a.base)
	if !a.haveBase {
		a.out.DataBytes = 0
	}
	sort.Slice(a.respBounds, func(i, j int) bool { return a.respBounds[i] < a.respBounds[j] })

	total := a.out.DataPackets
	if total < 1 {
		total = 1
	}
	for i := range a.pending {
		ps := &a.pending[i]
		st := &ps.stall
		var tr *flight.Trail
		if a.rec != nil {
			tr = &flight.Trail{}
		}
		st.Cause = a.topCause(ps, tr)
		if st.Cause == CauseTimeoutRetrans {
			st.RetransCause, st.DoubleKind, st.TailState = a.retransCause(ps, tr)
			st.Position = float64(ps.retransSegIdx) / float64(total)
		}
		if a.rec != nil {
			sub, dk := "", ""
			if st.Cause == CauseTimeoutRetrans {
				sub = st.RetransCause.String()
				if st.DoubleKind != DoubleNone {
					dk = st.DoubleKind.String()
				}
			}
			a.rec.Finalize(st.ID, st.Cause.String(), sub, dk, tr)
		}
		a.out.Stalls = append(a.out.Stalls, *st)
		a.out.TotalStallTime += st.Duration
	}
}

// respRange locates the response containing unwrapped stream offset
// seq and returns its [start, end) bounds. The end of the last
// response is the flow's final snd_nxt.
func (a *analyzer) respRange(seq uint64) (start, end uint64) {
	start = a.base
	end = a.maxEnd
	for _, b := range a.respBounds {
		if b <= seq && b >= start {
			start = b
		}
		if b > seq {
			end = b
			break
		}
	}
	return start, end
}

// isRespHead reports whether unwrapped offset seq starts a response.
func (a *analyzer) isRespHead(seq uint64) bool {
	for _, b := range a.respBounds {
		if b == seq {
			return true
		}
	}
	return seq == a.base
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
		ps.endDir == tcpsim.DirOut && ps.endLen > 0,
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
		ps.endDir == tcpsim.DirIn, flight.V("dir", ps.endDir.String())) {
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
func (a *analyzer) retransCause(ps *pendingStall, tr *flight.Trail) (RetransCause, DoubleKind, tcpsim.CongState) {
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
	_, respEnd := a.respRange(ps.endOff)
	allSent := ps.maxEndAtStall >= respEnd
	if tr.Check("T5.2 tail: response fully sent and too few segments above the loss",
		allSent && ps.segsAboveOutstanding < a.cfg.DupThresh,
		flight.V("all_sent", allSent), flight.V("snd_nxt", a.rel(ps.maxEndAtStall)),
		flight.V("resp_end", a.rel(respEnd)),
		flight.V("segs_above", ps.segsAboveOutstanding), flight.V("dupthresh", a.cfg.DupThresh)) {
		tailState := ps.stall.CaState
		switch tailState {
		case tcpsim.StateDisorder:
			tailState = tcpsim.StateOpen
		case tcpsim.StateLoss:
			tailState = tcpsim.StateRecovery
		}
		return RetransTail, 0, tailState
	}

	// 3. ACK delay/loss: the retransmission turns out spurious — a
	// DSACK for it arrives shortly after the stall, meaning the data
	// was never lost (Figure 5's "spurious" branch). This must
	// precede the small-window tests: a spurious retransmission
	// almost always happens at small in-flight and would otherwise
	// be swallowed by them.
	spurious := false
	var spuriousAt sim.Time
	for _, t := range ps.spuriousAt {
		if t > ps.stall.End && t.Sub(ps.stall.End) <= a.cfg.DSACKHorizon {
			spurious = true
			spuriousAt = t
			break
		}
	}
	if tr.Check("T5.3 spurious: a DSACK covered the retransmission within the horizon",
		spurious,
		flight.V("dsacks_for_seg", len(ps.spuriousAt)), flight.V("dsack_at", spuriousAt),
		flight.V("horizon", a.cfg.DSACKHorizon)) {
		return RetransAckDelayLoss, 0, 0
	}

	// 4/5. Small in-flight: fast retransmit starved of dupacks.
	if tr.Check("T5.4 small window: in_flight below the 4-segment boundary",
		ps.stall.InFlight < a.cfg.SmallInFlight,
		flight.V("in_flight", ps.stall.InFlight), flight.V("boundary", a.cfg.SmallInFlight)) {
		limit := a.cfg.SmallInFlight * a.mss
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
		ps.outstandingAtStart >= a.cfg.SmallInFlight &&
			ps.sackedOutAtStart == 0 && ps.dupacksAtStart == 0,
		flight.V("packets_out", ps.outstandingAtStart),
		flight.V("sacked_out", ps.sackedOutAtStart), flight.V("dupacks", ps.dupacksAtStart)) {
		return RetransContinuousLoss, 0, 0
	}

	// 7. Undetermined.
	tr.Note("T5.7 no rule matched: undetermined")
	return RetransUndetermined, 0, 0
}
