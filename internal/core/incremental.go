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

// LiveStall is a stall event surfaced the moment its verdict settles,
// usually a few records after it closes and before the flow ends. Its
// Stall equals the one Flush reports, except Position, which needs the
// flow's final packet count and stays −1 here.
type LiveStall struct {
	FlowID  string
	Service string
	Stall   Stall
}

// Incremental is the streaming form of the TAPO analyzer: records
// enter one at a time through Feed, stalls surface through OnStall as
// they settle, and Flush settles the rest and returns the completed
// FlowAnalysis. Feeding a completed flow's records in order and
// flushing produces byte-identical output to Analyze — Analyze is
// implemented as exactly that loop.
//
// An Incremental is not safe for concurrent use; the live monitor
// gives each flow to exactly one shard goroutine.
type Incremental struct {
	a       analyzer
	flushed bool
	// OnStall, when set before records are fed, is called once per
	// stall, in ID order, synchronously from Feed as soon as the
	// records fed so far fix the stall's verdict, or from Flush for a
	// stall still open at the flow's end (see LiveStall).
	OnStall func(LiveStall)
}

// NewIncremental returns a streaming analyzer with the given
// configuration (a zero Tau selects trace.DefaultTau, as in Analyze).
func NewIncremental(cfg Config) *Incremental {
	if cfg.Tau <= 0 {
		cfg.Tau = trace.DefaultTau
	}
	inc := &Incremental{}
	inc.a = analyzer{
		cfg:      cfg,
		mss:      1460,
		caState:  trace.StateOpen,
		cwnd:     InitCwnd,
		ssthresh: 1 << 30,
		rto:      trace.InitRTO,
		live:     inc,
	}
	return inc
}

// SetRecorder attaches a flight recorder. A nil recorder (the
// default) keeps the analyzer on its zero-overhead path. Attach
// before the first Feed so the event stream covers the whole flow.
func (inc *Incremental) SetRecorder(rec *flight.Recorder) { inc.a.rec = rec }

// SetMeta attaches the flow identity. The live monitor calls it again
// as facts arrive mid-flow (the SYN's MSS, the client window), so a
// zero InitRwnd never erases a value the analyzer already learned
// from the SYN itself.
func (inc *Incremental) SetMeta(m FlowMeta) {
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

// Stalls reports how many stalls have closed so far, settled or not.
func (inc *Incremental) Stalls() int { return len(inc.a.out.Stalls) + len(inc.a.pending) }

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
		inc.a.finish()
	}
	return &inc.a.out
}
