package core

import (
	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// FlowMeta carries the per-flow identity the batch analyzer reads
// from trace.Flow. For live flows it is known at admission time (from
// the demuxer's key and the SYN options); every field is optional —
// zero values fall back to the same defaults Analyze applies.
type FlowMeta struct {
	ID       string
	Service  string
	MSS      int // default 1460
	InitRwnd int // client SYN window; learned from the SYN when 0
}

// LiveStall is a stall event surfaced the moment it closes, before
// the flow ends. The top-level Cause is final: every Figure-5 branch
// tests facts that are frozen once the closing record is known (a
// later response boundary can never equal the closing segment's
// offset, because boundaries only appear at the ever-growing send
// edge). The Table-5 retransmission sub-cause is provisional — it may
// still be refined by post-hoc evidence (a DSACK inside the horizon,
// the final response boundary) — and Flush reports the settled value.
type LiveStall struct {
	FlowID  string
	Service string
	Stall   Stall
	// Index is the stall's ordinal within its flow (0-based).
	Index int
}

// Incremental is the streaming form of the TAPO analyzer: records
// enter one at a time through Feed, stalls surface through OnStall as
// they close, and Flush classifies and returns the completed
// FlowAnalysis. Feeding a completed flow's records in order and
// flushing produces byte-identical output to Analyze — Analyze is
// implemented as exactly that loop.
//
// An Incremental is not safe for concurrent use; the live monitor
// gives each flow to exactly one shard goroutine.
type Incremental struct {
	a       analyzer
	meta    FlowMeta
	flushed bool
	// OnStall, when set before records are fed, is called
	// synchronously from Feed as each stall closes. The event's
	// top-level cause is final; its retransmission sub-cause is the
	// best estimate at close time (see LiveStall).
	OnStall func(LiveStall)
}

// NewIncremental returns a streaming analyzer with the given
// configuration (zero-value Tau selects DefaultConfig, as in
// Analyze).
func NewIncremental(cfg Config) *Incremental {
	if cfg.Tau <= 0 {
		cfg = DefaultConfig()
	}
	inc := &Incremental{}
	inc.a = analyzer{
		cfg:       cfg,
		mss:       1460,
		segIdx:    make(map[uint64]int),
		dupThresh: cfg.DupThresh,
		caState:   trace.StateOpen,
		cwnd:      float64(cfg.InitCwnd),
		ssthresh:  1 << 30,
		rto:       cfg.InitRTO,
	}
	inc.a.stallHook = func(a *analyzer, ps *pendingStall) {
		if inc.OnStall == nil {
			return
		}
		st := ps.stall
		st.Cause = a.topCause(ps, nil)
		if st.Cause == CauseTimeoutRetrans {
			st.RetransCause, st.DoubleKind, st.TailState = a.retransCause(ps, nil)
			total := a.out.DataPackets
			if total < 1 {
				total = 1
			}
			st.Position = float64(ps.retransSegIdx) / float64(total)
		}
		inc.OnStall(LiveStall{
			FlowID:  inc.meta.ID,
			Service: inc.meta.Service,
			Stall:   st,
			Index:   st.ID,
		})
	}
	return inc
}

// SetRecorder attaches a flight recorder. A nil recorder (the
// default) keeps the analyzer on its zero-overhead path. Attach
// before the first Feed so the event stream covers the whole flow.
func (inc *Incremental) SetRecorder(rec *flight.Recorder) { inc.a.rec = rec }

// Recorder reports the attached flight recorder (nil when disabled).
func (inc *Incremental) Recorder() *flight.Recorder { return inc.a.rec }

// SetMeta attaches the flow identity. The live monitor calls it again
// as facts arrive mid-flow (the SYN's MSS, the client window), so a
// zero InitRwnd never erases a value the analyzer already learned
// from the SYN itself.
func (inc *Incremental) SetMeta(m FlowMeta) {
	inc.meta = m
	inc.a.out.FlowID = m.ID
	inc.a.out.Service = m.Service
	if m.InitRwnd != 0 {
		inc.a.out.InitRwnd = m.InitRwnd
	}
	if m.MSS > 0 {
		inc.a.mss = m.MSS
	}
}

// Feed advances the analyzer by one record. Records must arrive in
// capture order. Feed panics if called after Flush.
//
// tapo:hotpath
func (inc *Incremental) Feed(r *trace.Record) {
	if inc.flushed {
		panic("core: Incremental.Feed after Flush")
	}
	inc.a.feed(r)
}

// FeedBatch advances the analyzer by a run of records in capture
// order. It is exactly equivalent to calling Feed on each record —
// batch ≡ incremental by construction — but pays the flushed check
// and the call overhead once per run instead of once per record,
// which is what the live shard loop wants: it already drains its
// ingest channel in batches, so re-entering Feed per record was pure
// overhead. FeedBatch panics if called after Flush.
//
// tapo:hotpath
func (inc *Incremental) FeedBatch(recs []trace.Record) {
	if inc.flushed {
		panic("core: Incremental.FeedBatch after Flush")
	}
	for i := range recs {
		inc.a.feed(&recs[i])
	}
}

// Records reports how many records have been fed.
func (inc *Incremental) Records() int { return inc.a.nRecs }

// Stalls reports how many stalls have closed so far (classified or
// not).
func (inc *Incremental) Stalls() int { return len(inc.a.pending) }

// LastT reports the timestamp of the most recent record (zero before
// the first Feed).
func (inc *Incremental) LastT() sim.Time { return inc.a.lastT }

// DataBytesSoFar reports the stream span covered so far.
func (inc *Incremental) DataBytesSoFar() int64 {
	if !inc.a.haveBase {
		return 0
	}
	return int64(inc.a.maxEnd - inc.a.base)
}

// Flush finalizes classification and returns the flow's analysis.
// Flush is terminal: further Feed calls panic. Calling Flush again
// returns the same analysis.
func (inc *Incremental) Flush() *FlowAnalysis {
	if !inc.flushed {
		inc.flushed = true
		if inc.a.nRecs > 1 {
			inc.a.out.TransmissionTime = inc.a.lastT.Sub(inc.a.firstT)
		}
		inc.a.finalize()
	}
	return &inc.a.out
}
