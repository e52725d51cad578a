// Package triage implements the cheap always-on phase of two-phase
// live monitoring. The paper's premise is that stalls are rare events
// buried in massive healthy traffic, yet the full analyzer
// (core.Incremental) pays a per-segment scoreboard walk on every ACK
// of every flow. A triage.Flow instead tracks a handful of per-flow
// counters — bytes and segments per direction, the cumulative-ACK
// edge, a dupACK streak, a minimum-RTT estimate, the inter-record
// idle clock — with zero per-record heap allocation and no
// scoreboard, plus a bounded ring of recent raw records. When a stall
// symptom fires (Observe returns non-SymNone) the caller promotes the
// flow: the ring is replayed into a freshly constructed full analyzer
// so it sees the exact history it would have seen always-on.
//
// The correctness contract is one-sided and deliberate: the fast
// path may promote healthy flows (wasted work, never wrong answers),
// but it must never let a flow stall without promoting it. SymGap
// carries that guarantee — see threshold for the argument that the
// fast gap threshold is a lower bound of the analyzer's
// min(τ·SRTT, RTO) at every record.
package triage

import (
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// Symptom is the reason a flow looks sick enough for full analysis.
type Symptom uint8

// Symptoms, in detection precedence order (one per record).
const (
	SymNone       Symptom = iota
	SymGap                // inter-record silence exceeded the conservative fast threshold
	SymRetrans            // outgoing data below the send edge (retransmission or probe)
	SymZeroWindow         // client advertised a zero receive window
	SymDupAck             // duplicate-ACK streak reached DupBurst
	SymNoAdvance          // data outstanding, cumulative ACK pinned beyond the hold threshold
)

var symptomNames = [...]string{
	SymNone:       "none",
	SymGap:        "gap",
	SymRetrans:    "retrans",
	SymZeroWindow: "zero_window",
	SymDupAck:     "dupack",
	SymNoAdvance:  "no_advance",
}

func (s Symptom) String() string {
	if int(s) < len(symptomNames) {
		return symptomNames[s]
	}
	return "unknown"
}

// Config tunes the fast path. The zero value selects the documented
// defaults. The gap threshold needs no settings of its own: it runs on
// the analyzer's τ (see NewFlowIn) and trace's MinRTO and InitRTO.
type Config struct {
	// RingCap bounds the per-flow ring of recent raw records
	// (default 1024, minimum 2). A promotion whose symptom evidence
	// predates the ring replays from the ring start instead of the
	// flow start — conservative, and counted by the caller via
	// Attach's truncated result.
	RingCap int
	// DemoteAfter is how long (in record time) a promoted flow must
	// stay symptom-free before the caller may park its analyzer
	// (default 2s).
	DemoteAfter time.Duration
}

// DupBurst is the duplicate-ACK streak that promotes: below the
// analyzer's fast-retransmit threshold of 3, so the full analyzer is
// watching before recovery begins.
const DupBurst = 2

// WithDefaults returns the configuration with the documented
// defaults filled in (callers embedding a Config can normalize it
// once, up front).
func (c Config) WithDefaults() Config {
	if c.RingCap <= 0 {
		c.RingCap = 1024
	}
	if c.RingCap < 2 {
		// A stall is a gap between two records; the closing pair must
		// always survive in the ring.
		c.RingCap = 2
	}
	if c.DemoteAfter <= 0 {
		c.DemoteAfter = 2 * time.Second
	}
	return c
}

// Flow is one connection's fast-path state. Not safe for concurrent
// use: the live monitor owns each Flow from a single shard goroutine.
type Flow struct {
	ringCap int
	tau     float64 // the promoted analyzer's threshold multiplier

	// Counters.
	total       uint64
	outSegs     uint64
	inSegs      uint64
	outDataSegs uint64
	outBytes    uint64
	inBytes     uint64
	firstT      sim.Time
	lastT       sim.Time

	// Sequence tracking, all in unwrapped 64-bit offsets of the
	// server's data stream (out Seq, in Ack share one space, as in
	// the analyzer).
	u           seqspace.Unwrapper
	haveOut     bool
	firstOutOff uint64
	sndNxt      uint64
	haveAck     bool
	ackHi       uint64

	lastAdvanceT sim.Time
	haveOutData  bool
	lastOutDataT sim.Time
	dupStreak    int
	prevWnd      int
	haveWnd      bool

	// Minimum-RTT estimate: a lower bound of the analyzer's SRTT,
	// fed by the same handshake seed and TSEcr samples plus a
	// send-edge surrogate (see observe).
	minRTT     time.Duration
	hasRTT     bool
	synackAt   sim.Time
	haveSynack bool
	rttSeeded  bool
	// tsOff is the analyzer's map from the server's timestamp clock
	// to record time: the least r.T − TSVal over outbound segments.
	tsOff     time.Duration
	haveTSOff bool

	lastSym      Symptom
	lastSymptomT sim.Time

	// Ring of recent raw records (see ring.go): absolute indices
	// [ringStart, total) are retained, encoded in the chunks front →
	// … → tail. front's records start at index frontFirst; the first
	// ringStart−frontFirst of them are dropped already. enc is the
	// state after the tail's last record, and spare a freed chunk kept
	// for the next one the ring fills. fed is the absolute index of
	// the next record not yet replayed into the promoted analyzer
	// (meaningful once attached), and cur, made at the first Attach,
	// the decode position of record fed.
	front, tail, spare *chunk
	frontFirst         uint64
	enc                codec
	cur                *cursor
	ringStart          uint64
	fed                uint64
	attached           bool
	truncated          bool

	// arena, when set, recycles ring chunks across flows (see Arena).
	// Nil means plain allocation.
	arena *Arena
}

// NewFlow returns a fast-path tracker for an analyzer at
// trace.DefaultTau. The ring grows a chunk at a time up to cfg.RingCap
// records as records arrive.
func NewFlow(cfg Config) *Flow { return NewFlowIn(cfg, trace.DefaultTau, nil) }

// Observe feeds one record through the fast path: it updates the
// counters, buffers the record in the ring, and reports the stall
// symptom the record raised (SymNone almost always). When the flow is
// attached and the full ring had to overwrite a record the promoted
// analyzer has not consumed yet, that record is returned as spill
// (spilled=true) and already accounted as fed — the caller must feed
// it to the parked analyzer before the next Observe, which keeps
// repromotion byte-identical to always-on analysis at bounded lag.
//
// Buffering appends r to the ring and, once RingCap records are held,
// first drops the oldest one, decoding it as the spill when it was
// never fed. Steady state (ring at capacity) allocates nothing.
//
// tapo:hotpath
func (f *Flow) Observe(r *trace.Record) (sym Symptom, spill trace.Record, spilled bool) {
	sym = f.observe(r)
	if f.retained() == f.ringCap {
		if f.attached && f.fed == f.ringStart {
			spill = f.next()
			spilled = true
			f.fed++
		}
		f.dropOldest()
	}
	f.append(r)
	f.total++
	return sym, spill, spilled
}

// observe updates the fast state and detects symptoms. Checks run
// against the pre-record state, exactly as the analyzer evaluates its
// stall threshold before processing the record that closes the gap.
//
// tapo:hotpath
func (f *Flow) observe(r *trace.Record) Symptom {
	sym := SymNone
	if f.total > 0 && r.T.Sub(f.lastT) > f.threshold() {
		sym = SymGap
	}
	seg := &r.Seg
	switch r.Dir {
	case trace.DirOut:
		f.outSegs++
		if seg.TSVal > 0 {
			if d := r.T.Sub(seg.TSVal); !f.haveTSOff || d < f.tsOff {
				f.tsOff, f.haveTSOff = d, true
			}
		}
		if seg.Len == 0 {
			// Pure ACK, probe, FIN — or the SYN-ACK carrying the
			// server's ISN, which seeds the unwrapper as in the
			// analyzer so the first data byte lands next to it.
			if seg.Flags.Has(packet.FlagSYN) {
				f.u.Unwrap(seg.Seq)
				f.synackAt = r.T
				f.haveSynack = true
			}
			break
		}
		off := f.u.Unwrap(seg.Seq)
		end := off + uint64(seg.Len)
		if f.haveOut && off < f.sndNxt && sym == SymNone {
			// Data below the send edge: a retransmission or a
			// zero-window probe. Either way the full analyzer should
			// be watching.
			sym = SymRetrans
		}
		if !f.haveOut {
			f.haveOut = true
			f.firstOutOff = off
			f.sndNxt = end
			f.lastAdvanceT = r.T
		} else if end > f.sndNxt {
			f.sndNxt = end
		}
		f.outDataSegs++
		f.outBytes += uint64(seg.Len)
		f.haveOutData = true
		f.lastOutDataT = r.T
	case trace.DirIn:
		f.inSegs++
		f.inBytes += uint64(seg.Len)
		if seg.Flags.Has(packet.FlagSYN) {
			f.prevWnd = seg.Wnd
			f.haveWnd = true
			break
		}
		// Handshake RTT seed: the first post-SYN incoming segment
		// acknowledges the SYN-ACK — the same seed, under the same
		// guard, as the analyzer's.
		if !f.rttSeeded && f.haveSynack && f.synackAt > 0 {
			f.rttSeeded = true
			f.sample(r.T.Sub(f.synackAt))
		}
		if seg.Wnd == 0 && sym == SymNone {
			sym = SymZeroWindow
		}
		if seg.Flags.Has(packet.FlagACK) && f.haveOut {
			ack := f.u.Unwrap(seg.Ack)
			switch {
			case !f.haveAck || ack > f.ackHi:
				f.haveAck = true
				f.ackHi = ack
				f.lastAdvanceT = r.T
				f.dupStreak = 0
				// RTT sampling. The timestamp sample is the
				// analyzer's own, and falls back where the analyzer's
				// does; otherwise the time since the most recent data
				// send is a lower bound of the analyzer's ack-edge
				// sample (the edge segment was sent no later than the
				// latest segment), floored at 1ns so a same-instant
				// burst still covers the analyzer's positive sample.
				var s time.Duration
				if seg.TSEcr > 0 && f.haveTSOff {
					if s = r.T.Sub(seg.TSEcr) - f.tsOff; s > trace.MaxTSRTT {
						s = 0
					}
				}
				if s > 0 {
					f.sample(s)
				} else if f.haveOutData {
					s = r.T.Sub(f.lastOutDataT)
					if s <= 0 {
						s = time.Nanosecond
					}
					f.sample(s)
				}
			case ack == f.ackHi && seg.Len == 0 && f.outstanding() &&
				(seg.SACK.Len() > 0 || seg.Wnd == f.prevWnd):
				// The analyzer's duplicate-ACK test, minus the
				// scoreboard: window updates don't count.
				f.dupStreak++
				if f.dupStreak >= DupBurst && sym == SymNone {
					sym = SymDupAck
				}
			}
		}
		f.prevWnd = seg.Wnd
		f.haveWnd = true
	}
	if sym == SymNone && f.haveOutData && f.outstanding() &&
		r.T.Sub(f.lastAdvanceT) > f.noAdvanceHold() {
		sym = SymNoAdvance
	}
	if f.total == 0 {
		f.firstT = r.T
	}
	f.lastT = r.T
	if sym != SymNone {
		f.lastSym = sym
		f.lastSymptomT = r.T
	}
	return sym
}

// outstanding reports whether sent data is not yet cumulatively
// acknowledged.
//
// tapo:hotpath
func (f *Flow) outstanding() bool {
	return f.haveOut && (!f.haveAck || f.ackHi < f.sndNxt)
}

// threshold is the fast gap threshold, a provable lower bound of the
// analyzer's min(τ·SRTT, RTO) at every record:
//
//   - minRTT ≤ SRTT: every RTT sample the analyzer takes has a fast
//     sample ≤ it at the same record (handshake and TSEcr samples are
//     identical; the ack-edge sample is lower-bounded by the
//     send-edge surrogate), and SRTT is a convex combination of the
//     analyzer's samples, hence ≥ their minimum ≥ minRTT. So
//     τ·minRTT ≤ τ·SRTT.
//   - minRTT + MinRTO ≤ SRTT + max(4·RTTVAR, MinRTO) = RTO, and RTO
//     backoff only inflates the right-hand side.
//   - Before the fast path has a sample the analyzer has none either
//     (fast samples are a superset), so its threshold is its RTO,
//     which starts at InitRTO and only grows until the first sample.
//
// Therefore every record that closes a stall in the full analyzer
// raises SymGap here: no stall escapes promotion.
//
// tapo:hotpath
func (f *Flow) threshold() time.Duration {
	if !f.hasRTT {
		return trace.InitRTO
	}
	th := time.Duration(f.tau * float64(f.minRTT))
	if alt := f.minRTT + trace.MinRTO; alt < th {
		th = alt
	}
	return th
}

// noAdvanceHold is the SymNoAdvance patience: well above the gap
// threshold, so it only catches flows whose records keep flowing
// while the cumulative ACK stays pinned.
//
// tapo:hotpath
func (f *Flow) noAdvanceHold() time.Duration {
	h := 4 * f.threshold()
	if h < trace.MinRTO {
		h = trace.MinRTO
	}
	return h
}

// sample folds one RTT lower-bound sample in, ignoring non-positive
// values exactly as the analyzer's rttSample does.
//
// tapo:hotpath
func (f *Flow) sample(s time.Duration) {
	if s <= 0 {
		return
	}
	if !f.hasRTT || s < f.minRTT {
		f.minRTT = s
		f.hasRTT = true
	}
}

// satInt narrows a uint64 to int, saturating at MaxInt instead of
// truncating. The ring invariants keep every narrowed difference
// below RingCap, but on 32-bit platforms a broken invariant would
// otherwise wrap silently into a negative index.
//
// tapo:hotpath
func satInt(u uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if u > uint64(maxInt) {
		return maxInt
	}
	return int(u)
}

// retained is the number of records currently in the ring.
//
// tapo:hotpath
func (f *Flow) retained() int { return satInt(f.total - f.ringStart) }

// Attach marks the flow promoted: from now on ReplayUnfed feeds the
// buffered suffix (and, via Observe's spill, ring overflow while
// parked trickle-feeds). It reports whether THIS attach lost history
// — the symptom's earliest evidence predates the ring, so the
// analyzer replays from the ring start instead of the flow start.
// Attach is idempotent; repromotion after a park never truncates,
// because spill keeps fed inside the ring.
func (f *Flow) Attach() (truncated bool) {
	if f.fed < f.ringStart {
		f.fed = f.ringStart
		f.truncated = true
		truncated = true
	}
	if !f.attached {
		f.attached = true
		f.seek()
	}
	return truncated
}

// ReplayUnfed hands every buffered record the analyzer has not seen
// yet to fn, in capture order; the flow must be attached. The record
// pointer is only valid for the duration of the call (the value is a
// self-contained copy, SACK blocks included). Promoted callers invoke it once per
// Observe (feeding exactly the new record); repromotion replays the
// whole parked suffix. Each record is decoded into the cursor's one
// record, so a replay allocates nothing, however long.
func (f *Flow) ReplayUnfed(fn func(*trace.Record)) {
	for f.fed < f.total {
		f.cur.rec = f.next()
		fn(&f.cur.rec)
		f.fed++
	}
}

// Accessors. All report fast-path state only.

// Total is the number of records observed (and buffered).
func (f *Flow) Total() uint64 { return f.total }

// Fed is the absolute index of the next record not yet replayed.
func (f *Flow) Fed() uint64 { return f.fed }

// Truncated reports whether any promotion replayed from a ring that
// had already dropped history.
func (f *Flow) Truncated() bool { return f.truncated }

// RingStart is the absolute index of the oldest retained record.
func (f *Flow) RingStart() uint64 { return f.ringStart }

// FirstT/LastT bound the observed records (zero before the first).
func (f *Flow) FirstT() sim.Time { return f.firstT }
func (f *Flow) LastT() sim.Time  { return f.lastT }

// DataBytes is the server data-stream span covered so far.
func (f *Flow) DataBytes() int64 {
	if !f.haveOut {
		return 0
	}
	return int64(f.sndNxt - f.firstOutOff)
}

// OutDataSegments counts outgoing data segments. For a flow that
// never raised SymRetrans every one is distinct (a repeat would sit
// below the send edge), so this equals the analyzer's DataPackets.
func (f *Flow) OutDataSegments() int { return satInt(f.outDataSegs) }

// LastSymptom is the most recent non-SymNone symptom (SymNone before
// the first).
func (f *Flow) LastSymptom() Symptom { return f.lastSym }

// SinceSymptom reports the record time elapsed since the last
// symptom.
func (f *Flow) SinceSymptom(now sim.Time) time.Duration {
	return now.Sub(f.lastSymptomT)
}

// MinRTT reports the current RTT lower-bound estimate (0, false
// before any sample).
func (f *Flow) MinRTT() (time.Duration, bool) { return f.minRTT, f.hasRTT }
