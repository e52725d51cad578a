// Package flight is TAPO's per-flow flight recorder: a low-overhead,
// bounded event trace that turns every stall verdict into an
// auditable evidence chain. When a Recorder is attached, the core
// analyzer emits typed events (congestion-state transitions,
// cwnd/ssthresh moves, SRTT/RTO updates, scoreboard edits, stall
// open/close) into a bounded ring, and every classified stall is
// stored as an Evidence entry: the Figure-5/Table-5 decision path
// with the concrete variable values that decided each branch, plus
// the ±K packet records around the silent gap (tcptrace-style
// time/sequence samples).
//
// Everything is bounded and accounted: the event ring overwrites its
// oldest entries (counted in EventDrops), the evidence store keeps
// the most recent MaxStalls stalls (older entries counted in
// EvidenceDrops), and a stall's record window holds at most
// 2·WindowK+1 samples. A nil *Recorder is the disabled mode — every
// method is nil-receiver safe, so the analyzer's fast path costs one
// pointer test per emission site.
//
// A Recorder is owned by one flow and is not safe for concurrent
// use; concurrent readers (the live admin plane) must copy under the
// flow owner's lock via Snapshot.
package flight

import (
	"fmt"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
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
	// (tcpsim.CongState values), C=RTO backoff count.
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

// Event is one recorder event: 48 bytes, no pointers, so emitting an
// event never allocates once the ring has room.
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
func (s RecSample) Dir() tcpsim.Dir {
	if s.out {
		return tcpsim.DirOut
	}
	return tcpsim.DirIn
}

// sampleOf flattens a trace record.
func sampleOf(idx int, r *trace.Record) RecSample {
	return RecSample{
		Idx:   idx,
		T:     r.T,
		Seq:   r.Seg.Seq,
		Ack:   r.Seg.Ack,
		Len:   int32(r.Seg.Len),
		Wnd:   int32(r.Seg.Wnd),
		Flags: r.Seg.Flags,
		Sack:  uint8(r.Seg.SACK.Len()),
		out:   r.Dir == tcpsim.DirOut,
	}
}

// Config sizes a Recorder. The zero value selects the documented
// defaults.
type Config struct {
	// RingSize is the event-ring capacity (default 256). The ring
	// grows on demand, so a flow pays only for the events it holds.
	// When full, the oldest event is overwritten and counted in
	// EventDrops.
	RingSize int
	// WindowK is how many records are kept on each side of a stall
	// gap (default 8): a stall's window holds up to WindowK records
	// before the gap, the gap-closing record, and WindowK after.
	WindowK int
	// MaxStalls caps retained Evidence entries per flow (default 32).
	// Older entries are discarded first and counted in EvidenceDrops.
	MaxStalls int
}

func (c *Config) defaults() {
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.WindowK <= 0 {
		c.WindowK = 8
	}
	if c.MaxStalls <= 0 {
		c.MaxStalls = 32
	}
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

	// events is the bounded ring. It grows by doubling up to
	// RingSize and wraps only once full; total counts events ever
	// emitted, so ring position is total%len and drops = total-len
	// once full.
	// guarded by the owning analyzer's single goroutine (external)
	events []Event
	total  uint64 // guarded by the owning analyzer's single goroutine (external)

	// recent holds the last WindowK+1 record samples (pre-gap
	// context); open lists evidences still awaiting post-gap samples.
	// guarded by the owning analyzer's single goroutine (external)
	recent []RecSample
	open   []*Evidence // guarded by the owning analyzer's single goroutine (external)

	// stalls maps stall ID → evidence; order preserves insertion so
	// the cap evicts oldest-first.
	// guarded by the owning analyzer's single goroutine (external)
	stalls        map[int]*Evidence
	order         []int  // guarded by the owning analyzer's single goroutine (external)
	evidenceDrops uint64 // guarded by the owning analyzer's single goroutine (external)
}

// ringMinCap is the event ring's first allocation.
const ringMinCap = 16

// NewRecorder builds an enabled recorder. The event ring is allocated
// on the first Emit.
func NewRecorder(cfg Config) *Recorder {
	cfg.defaults()
	return &Recorder{
		cfg:    cfg,
		recent: make([]RecSample, 0, cfg.WindowK+1),
		stalls: make(map[int]*Evidence),
	}
}

// Enabled reports whether the recorder exists (nil-receiver safe).
func (r *Recorder) Enabled() bool { return r != nil }

// Emit appends one event to the ring, overwriting the oldest when
// full. Nil-receiver safe.
func (r *Recorder) Emit(idx int, t sim.Time, kind Kind, name Name, a, b, c int64) {
	if r == nil {
		return
	}
	e := Event{Idx: idx, T: t, Kind: kind, Name: name, A: a, B: b, C: c}
	if n := len(r.events); n < r.cfg.RingSize {
		if n == cap(r.events) {
			// Not yet wrapped, so the events sit in order from index 0.
			r.events = append(make([]Event, 0, min(max(2*n, ringMinCap), r.cfg.RingSize)), r.events...)
		}
		r.events = append(r.events, e)
	} else {
		r.events[r.total%uint64(r.cfg.RingSize)] = e
	}
	r.total++
}

// Sample feeds one record into the window machinery: it completes
// any open post-gap windows and becomes pre-gap context for the next
// stall. Nil-receiver safe.
func (r *Recorder) Sample(idx int, rec *trace.Record) {
	if r == nil {
		return
	}
	s := sampleOf(idx, rec)
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
	} else {
		copy(r.recent, r.recent[1:])
		r.recent[len(r.recent)-1] = s
	}
}

// StallClosed stores the evidence for a freshly closed stall: the
// decision trail walked at close time (provisional for the Table-5
// sub-cause), the pre-gap record window accumulated so far, and the
// current event-drop watermark. The gap-closing record must already
// have been Sampled. Nil-receiver safe.
func (r *Recorder) StallClosed(ref Ref, startIdx, endIdx int, start, end sim.Time, cause, subCause, doubleKind string, tr *Trail) {
	if r == nil {
		return
	}
	ev := &Evidence{
		Ref:         ref,
		StartIdx:    startIdx,
		EndIdx:      endIdx,
		Start:       start,
		End:         end,
		Cause:       cause,
		SubCause:    subCause,
		DoubleKind:  doubleKind,
		Provisional: true,
		Decision:    tr.steps(),
		// Room for the WindowK post-gap samples Sample appends.
		Window:     append(make([]RecSample, 0, len(r.recent)+r.cfg.WindowK), r.recent...),
		postWanted: r.cfg.WindowK,
	}
	// Events inside or near the stall: everything currently in the
	// ring whose record index is at or after the window start, counted
	// first so the copy is allocated once at its exact length.
	lo := startIdx - r.cfg.WindowK
	older, newer := r.halves()
	n := 0
	for _, half := range [2][]Event{older, newer} {
		for i := range half {
			if half[i].Idx >= lo {
				n++
			}
		}
	}
	if n > 0 {
		ev.Events = make([]Event, 0, n)
		for _, half := range [2][]Event{older, newer} {
			for i := range half {
				if half[i].Idx >= lo {
					ev.Events = append(ev.Events, half[i])
				}
			}
		}
	}
	ev.EventDrops = r.EventDrops()
	r.stalls[ref.Stall] = ev
	r.order = append(r.order, ref.Stall)
	r.open = append(r.open, ev)
	for len(r.order) > r.cfg.MaxStalls {
		victim := r.order[0]
		r.order = r.order[1:]
		if old := r.stalls[victim]; old != nil {
			delete(r.stalls, victim)
			r.evidenceDrops++
			for i, o := range r.open {
				if o == old {
					r.open = append(r.open[:i], r.open[i+1:]...)
					break
				}
			}
		}
	}
}

// Finalize replaces a stall's decision trail and causes with the
// settled, post-hoc classification (DSACK horizon, final response
// bounds). Unknown IDs — evidence already evicted — are ignored.
// Nil-receiver safe.
func (r *Recorder) Finalize(stallID int, cause, subCause, doubleKind string, tr *Trail) {
	if r == nil {
		return
	}
	ev := r.stalls[stallID]
	if ev == nil {
		return
	}
	ev.Cause = cause
	ev.SubCause = subCause
	ev.DoubleKind = doubleKind
	ev.Decision = tr.steps()
	ev.Provisional = false
}

// Evidence returns the stored evidence for one stall ID, or nil when
// the stall is unknown or was evicted by the MaxStalls cap.
// Nil-receiver safe.
func (r *Recorder) Evidence(stallID int) *Evidence {
	if r == nil {
		return nil
	}
	return r.stalls[stallID]
}

// Evidences lists retained evidence entries in stall-ID order.
// Nil-receiver safe.
func (r *Recorder) Evidences() []*Evidence {
	if r == nil {
		return nil
	}
	out := make([]*Evidence, 0, len(r.order))
	for _, id := range r.order {
		if ev := r.stalls[id]; ev != nil {
			out = append(out, ev)
		}
	}
	return out
}

// halves returns the ring contents oldest-first as two slices of the
// ring itself: older runs from the oldest event to the end of the
// array, newer from its start to the newest. Until the ring wraps,
// len(events) == total and newer is empty.
func (r *Recorder) halves() (older, newer []Event) {
	if len(r.events) == 0 {
		return nil, nil
	}
	start := r.total % uint64(len(r.events))
	return r.events[start:], r.events[:start]
}

// Events returns the event ring oldest-first (a copy).
// Nil-receiver safe.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.events) == 0 {
		return nil
	}
	older, newer := r.halves()
	out := make([]Event, len(r.events))
	copy(out[copy(out, older):], newer)
	return out
}

// EventDrops reports how many events the ring has overwritten.
// Nil-receiver safe.
func (r *Recorder) EventDrops() uint64 {
	if r == nil {
		return 0
	}
	if r.total <= uint64(len(r.events)) {
		return 0
	}
	return r.total - uint64(len(r.events))
}

// EvidenceDrops reports how many evidence entries the MaxStalls cap
// discarded. Nil-receiver safe.
func (r *Recorder) EvidenceDrops() uint64 {
	if r == nil {
		return 0
	}
	return r.evidenceDrops
}

// Config reports the (defaulted) configuration; the zero Config for
// a nil recorder.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}
