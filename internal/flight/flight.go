// Package flight is TAPO's per-flow flight recorder: a low-overhead,
// bounded event trace that turns every stall verdict into an
// auditable evidence chain. When a Recorder is attached, the core
// analyzer emits typed events (congestion-state transitions,
// cwnd/ssthresh moves, SRTT/RTO updates, scoreboard edits, stall
// open/close) into a small window, and every classified stall is
// stored as an Evidence entry: the Figure-5/Table-5 decision path
// with the concrete variable values that decided each branch, the
// ±K packet records around the silent gap (tcptrace-style
// time/sequence samples) and the events near it.
//
// Everything is bounded: the event window holds only the events of
// the last WindowK+2 records, which are all a stall's evidence
// reads; the evidence store keeps the most recent MaxStalls stalls
// (older entries counted in EvidenceDrops), and a stall's record
// window holds at most 2·WindowK+1 samples. A nil *Recorder is the
// disabled mode — every method is nil-receiver safe, so the
// analyzer's fast path costs one pointer test per emission site.
//
// A Recorder is owned by one flow and is not safe for concurrent
// use; concurrent readers (the live admin plane) must copy under the
// flow owner's lock via Snapshot.
package flight

import (
	"cmp"
	"fmt"
	"slices"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// Kind tags one recorder event. The A/B/C payload meaning is fixed
// per kind (documented on each constant); values that are times are
// in microseconds, stream positions are offsets relative to the
// flow's first data byte.
type Kind uint8

// Event kinds.
const (
	// KindState: congestion state transition. A=from, B=to
	// (trace.CongState values), C=RTO backoff count.
	KindState Kind = iota
	// KindCwnd: congestion window move. A=cwnd (segments),
	// B=ssthresh (segments), C=RTO µs.
	KindCwnd
	// KindRTT: RTT estimator update. A=SRTT µs, B=RTTVAR µs, C=RTO µs.
	KindRTT
	// KindSeg: scoreboard edit for an outgoing data segment.
	// A=stream offset, B=length, C=transmission count (1=original).
	KindSeg
	// KindSack: selective-ACK processing. A=segments newly marked,
	// B=1 when the record carried a DSACK, C=dupack count.
	KindSack
	// KindAck: cumulative ACK advance. A=new snd_una offset,
	// B=segments newly acked, C=cwnd (segments) after growth.
	KindAck
	// KindStallOpen: the silence that became a stall began after this
	// record. A=gap µs, B=threshold µs = min(τ·SRTT, RTO), C=stall ID.
	KindStallOpen
	// KindStallClose: the stall closed at this record. A=stall ID,
	// B=duration µs, C=0.
	KindStallClose
)

var kindNames = [...]string{
	KindState:      "state",
	KindCwnd:       "cwnd",
	KindRTT:        "rtt",
	KindSeg:        "seg",
	KindSack:       "sack",
	KindAck:        "ack",
	KindStallOpen:  "stall-open",
	KindStallClose: "stall-close",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Name labels one emission site. It is a byte rather than a string so
// that an Event stays 48 bytes; String renders the site's label.
type Name uint8

// Emission-site names, one per site in the analyzer.
const (
	NameStallOpen Name = iota
	NameStallClose
	NameDataSent
	NameRetransmit
	NameEnterLoss
	NameLossReset
	NameEnterRecovery
	NameRecoveryHalve
	NameZeroWindow
	NameWindowReopen
	NameDSACK
	NameSACKMark
	NameDupack
	NameEnterDisorder
	NameRecoveryPointAcked
	NameDisorderCleared
	NameAckAdvance
	NameRTTSample
)

var nameLabels = [...]string{
	NameStallOpen:          "gap exceeded min(tau*SRTT, RTO)",
	NameStallClose:         "silence broken",
	NameDataSent:           "data-sent",
	NameRetransmit:         "retransmit",
	NameEnterLoss:          "enter-loss",
	NameLossReset:          "loss-reset",
	NameEnterRecovery:      "enter-recovery",
	NameRecoveryHalve:      "recovery-halve",
	NameZeroWindow:         "zero-window",
	NameWindowReopen:       "window-reopen",
	NameDSACK:              "dsack",
	NameSACKMark:           "sack-mark",
	NameDupack:             "dupack",
	NameEnterDisorder:      "enter-disorder",
	NameRecoveryPointAcked: "recovery-point-acked",
	NameDisorderCleared:    "disorder-cleared",
	NameAckAdvance:         "ack-advance",
	NameRTTSample:          "rtt-sample",
}

func (n Name) String() string {
	if int(n) < len(nameLabels) {
		return nameLabels[n]
	}
	return fmt.Sprintf("name(%d)", int(n))
}

// Event is one recorder event: 48 bytes, no pointers. The window
// holds events as they are; evidence keeps them encoded (see
// encodeEvents).
type Event struct {
	// Idx is the record index (0-based feed order) the event is
	// attributed to.
	Idx  int
	T    sim.Time
	Kind Kind
	Name Name
	// A, B, C carry the payload; meaning is per Kind.
	A, B, C int64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %.6fs %s/%s a=%d b=%d c=%d",
		e.Idx, e.T.Seconds(), e.Kind, e.Name, e.A, e.B, e.C)
}

// RecSample is one packet record captured into a stall's evidence
// window — the raw material of a tcptrace-style time/sequence plot.
// Its fields are as narrow as the wire allows, so a sample is 40 bytes.
type RecSample struct {
	Idx   int
	T     sim.Time
	Seq   uint32
	Ack   uint32
	Len   int32
	Wnd   int32
	Flags packet.TCPFlags
	Sack  uint8 // SACK blocks carried
	out   bool  // direction: see Dir
}

// Dir reports the record's direction.
func (s RecSample) Dir() trace.Dir {
	if s.out {
		return trace.DirOut
	}
	return trace.DirIn
}

// SampleOf flattens a trace record, the idx-th of its flow.
func SampleOf(idx int, r *trace.Record) RecSample {
	return RecSample{
		Idx:   idx,
		T:     r.T,
		Seq:   r.Seg.Seq,
		Ack:   r.Seg.Ack,
		Len:   int32(r.Seg.Len),
		Wnd:   int32(r.Seg.Wnd),
		Flags: r.Seg.Flags,
		Sack:  uint8(r.Seg.SACK.Len()),
		out:   r.Dir == trace.DirOut,
	}
}

// Config sizes a Recorder. The zero value selects the documented
// defaults.
type Config struct {
	// WindowK is how many records are kept on each side of a stall
	// gap (default 8): a stall's window holds up to WindowK records
	// before the gap, the gap-closing record, and WindowK after, and
	// its events are those of records StartIdx−WindowK on. The event
	// window holds the events of the last WindowK+2 records.
	WindowK int
	// MaxStalls caps retained Evidence entries per flow (default 32).
	// Older entries are discarded first and counted in EvidenceDrops.
	MaxStalls int
}

// WithDefaults returns the configuration with the documented
// defaults filled in.
func (c Config) WithDefaults() Config {
	if c.WindowK <= 0 {
		c.WindowK = 8
	}
	if c.MaxStalls <= 0 {
		c.MaxStalls = 32
	}
	return c
}

// Ref names one stall's evidence: flow ID plus the flow-scoped
// monotonic stall ID. It is the stable key shared by live stall
// events, the /stalls and /debug admin planes, groundtruth grading
// and `tapo explain`.
type Ref struct {
	Flow  string `json:"flow"`
	Stall int    `json:"stall"`
}

func (r Ref) String() string { return fmt.Sprintf("%s/stall/%d", r.Flow, r.Stall) }

// Recorder is the per-flow flight recorder. The zero value is not
// usable; construct with NewRecorder. A nil *Recorder is valid and
// records nothing.
type Recorder struct {
	cfg Config

	// events holds the events of the last WindowK+2 records.
	// guarded by the owning analyzer's single goroutine (external)
	events window

	// recent holds the last WindowK+1 record samples (pre-gap
	// context) as a circular window: once full, head is the oldest.
	// open lists evidences still awaiting post-gap samples.
	// guarded by the owning analyzer's single goroutine (external)
	recent []RecSample
	head   int         // guarded by the owning analyzer's single goroutine (external)
	open   []*Evidence // guarded by the owning analyzer's single goroutine (external)

	// stalls holds the retained evidence in stall-ID order: IDs only
	// grow, so the cap evicts from the front.
	// guarded by the owning analyzer's single goroutine (external)
	stalls        []*Evidence
	evidenceDrops uint64 // guarded by the owning analyzer's single goroutine (external)
}

// NewRecorder builds an enabled recorder. The event window is
// allocated on the first Emit.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.WithDefaults()
	return &Recorder{
		cfg:    cfg,
		recent: make([]RecSample, 0, cfg.WindowK+1),
	}
}

// Emit appends one event to the window, first trimming the events
// of records before idx−(WindowK+1). idx must not decrease from one
// call to the next — the analyzer attributes events to its record
// counter — so the window is oldest first and the events a stall's
// evidence keeps are a suffix of it. Nil-receiver safe.
func (r *Recorder) Emit(idx int, t sim.Time, kind Kind, name Name, a, b, c int64) {
	if r == nil {
		return
	}
	r.events.push(idx-r.cfg.WindowK-1, Event{Idx: idx, T: t, Kind: kind, Name: name, A: a, B: b, C: c})
}

// Sample feeds one record into the window machinery: it completes
// any open post-gap windows and becomes pre-gap context for the next
// stall. Nil-receiver safe.
func (r *Recorder) Sample(idx int, rec *trace.Record) {
	if r == nil {
		return
	}
	s := SampleOf(idx, rec)
	if len(r.open) > 0 {
		keep := r.open[:0]
		for _, ev := range r.open {
			ev.Window = append(ev.Window, s)
			ev.postWanted--
			if ev.postWanted > 0 {
				keep = append(keep, ev)
			}
		}
		r.open = keep
	}
	if len(r.recent) < cap(r.recent) {
		r.recent = append(r.recent, s)
		return
	}
	r.recent[r.head] = s
	if r.head++; r.head == len(r.recent) {
		r.head = 0
	}
}

// StallClosed stores the evidence for a freshly closed stall: the
// pre-gap record window accumulated so far and the window's events
// from record startIdx−WindowK on. Its verdict comes later, from
// Settle. The gap-closing record must already have been Sampled, and
// ref.Stall must exceed every ID closed before. Nil-receiver safe.
func (r *Recorder) StallClosed(ref Ref, startIdx, endIdx int, start, end sim.Time) {
	if r == nil {
		return
	}
	ev := &Evidence{
		Ref:        ref,
		StartIdx:   startIdx,
		EndIdx:     endIdx,
		Start:      start,
		End:        end,
		postWanted: r.cfg.WindowK,
	}
	// Room for the WindowK post-gap samples Sample appends; the
	// circular window is copied oldest first.
	ev.Window = make([]RecSample, 0, len(r.recent)+r.cfg.WindowK)
	ev.Window = append(append(ev.Window, r.recent[r.head:]...), r.recent[:r.head]...)
	// Events inside or near the stall, encoded.
	ev.events = encodeEvents(r.events.since(startIdx - r.cfg.WindowK))
	r.stalls = append(r.stalls, ev)
	r.open = append(r.open, ev)
	if len(r.stalls) > r.cfg.MaxStalls {
		old := r.stalls[0]
		r.stalls = slices.Delete(r.stalls, 0, 1)
		r.evidenceDrops++
		if i := slices.Index(r.open, old); i >= 0 {
			r.open = slices.Delete(r.open, i, i+1)
		}
	}
}

// Settle writes a stall's verdict and the decision trail that reached
// it, once, when the stall's verdict is settled. Unknown IDs —
// evidence already evicted — are ignored. Nil-receiver safe.
func (r *Recorder) Settle(stallID int, cause, subCause, doubleKind string, tr *Trail) {
	if r == nil {
		return
	}
	ev := r.Evidence(stallID)
	if ev == nil {
		return
	}
	ev.Cause = cause
	ev.SubCause = subCause
	ev.DoubleKind = doubleKind
	ev.Decision = tr.steps()
}

// Evidence returns the stored evidence for one stall ID, or nil when
// the stall is unknown or was evicted by the MaxStalls cap.
// Nil-receiver safe.
func (r *Recorder) Evidence(stallID int) *Evidence {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.stalls, stallID, func(ev *Evidence, id int) int {
		return cmp.Compare(ev.Ref.Stall, id)
	})
	if !ok {
		return nil
	}
	return r.stalls[i]
}

// Evidences lists retained evidence entries in stall-ID order.
// Nil-receiver safe.
func (r *Recorder) Evidences() []*Evidence {
	if r == nil {
		return nil
	}
	return slices.Clone(r.stalls)
}

// Events returns the event window oldest-first (a copy): the events
// of the last WindowK+2 records. Nil-receiver safe.
func (r *Recorder) Events() []Event {
	if r == nil || r.events.n == 0 {
		return nil
	}
	a, b := r.events.runs()
	return append(append(make([]Event, 0, r.events.n), a...), b...)
}

// EvidenceDrops reports how many evidence entries the MaxStalls cap
// discarded. Nil-receiver safe.
func (r *Recorder) EvidenceDrops() uint64 {
	if r == nil {
		return 0
	}
	return r.evidenceDrops
}

// window is a circular buffer of events, oldest first: n of them from
// buf[head] on, wrapping at len(buf). It grows when full, so it holds
// every event of the records it spans.
type window struct {
	buf     []Event
	head, n int
}

// push trims the events of records before lo, then appends e.
func (w *window) push(lo int, e Event) {
	for w.n > 0 && w.buf[w.head].Idx < lo {
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
		w.n--
	}
	if w.n == len(w.buf) {
		buf := make([]Event, max(16, 2*w.n))
		copy(buf[copy(buf, w.buf[w.head:]):], w.buf[:w.head])
		w.buf, w.head = buf, 0
	}
	i := w.head + w.n
	if i >= len(w.buf) {
		i -= len(w.buf)
	}
	w.buf[i] = e
	w.n++
}

// runs returns the held events, oldest first, as the two runs of the
// circular buffer.
func (w *window) runs() (a, b []Event) {
	if end := w.head + w.n; end > len(w.buf) {
		return w.buf[w.head:], w.buf[:end-len(w.buf)]
	}
	return w.buf[w.head : w.head+w.n], nil
}

// since is runs without the events of records before lo.
func (w *window) since(lo int) (a, b []Event) {
	a, b = w.runs()
	for len(a) > 0 && a[0].Idx < lo {
		a = a[1:]
	}
	if len(a) == 0 {
		for len(b) > 0 && b[0].Idx < lo {
			b = b[1:]
		}
	}
	return a, b
}
