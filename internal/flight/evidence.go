package flight

import (
	"fmt"
	"strings"
	"time"

	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// KV is one named variable value backing a branch test, e.g.
// {"rwnd", "64240"}. Values are pre-rendered strings so a BranchStep
// is self-contained.
type KV struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// V renders a value into a KV. It accepts the handful of types the
// classifier deals in.
func V(key string, val any) KV {
	switch x := val.(type) {
	case string:
		return KV{key, x}
	case bool:
		if x {
			return KV{key, "true"}
		}
		return KV{key, "false"}
	case time.Duration:
		return KV{key, x.String()}
	case sim.Time:
		return KV{key, fmt.Sprintf("%.6fs", x.Seconds())}
	case trace.CongState:
		return KV{key, x.String()}
	default:
		return KV{key, fmt.Sprint(val)}
	}
}

// BranchStep is one predicate of the Figure-5 / Table-5 walk: the
// rule as the tree states it, whether it held, and the concrete
// variable values (with record indices where relevant) that decided
// it.
type BranchStep struct {
	Rule  string `json:"rule"`
	Taken bool   `json:"taken"`
	Vars  []KV   `json:"vars,omitempty"`
}

func (s BranchStep) String() string {
	verdict := "no"
	if s.Taken {
		verdict = "YES"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %-3s", s.Rule, verdict)
	for _, kv := range s.Vars {
		fmt.Fprintf(&b, "  %s=%s", kv.Key, kv.Val)
	}
	return b.String()
}

// Trail accumulates the branch steps of one classification walk. A
// nil *Trail records nothing, so the classifier can thread one
// unconditionally:
//
//	if tr.Check("rwnd == 0 at stall start", rwnd == 0, flight.V("rwnd", rwnd)) {
//		return CauseZeroWindow
//	}
//
// Check returns its predicate unchanged, keeping control flow
// identical whether or not a trail is attached.
type Trail struct {
	Steps []BranchStep
}

// Check records one branch test and returns taken.
func (t *Trail) Check(rule string, taken bool, vars ...KV) bool {
	if t != nil {
		t.Steps = append(t.Steps, BranchStep{Rule: rule, Taken: taken, Vars: vars})
	}
	return taken
}

// Note records an unconditional step (a conclusion or context line).
func (t *Trail) Note(rule string, vars ...KV) {
	if t != nil {
		t.Steps = append(t.Steps, BranchStep{Rule: rule, Taken: true, Vars: vars})
	}
}

// steps returns the recorded steps (nil-safe).
func (t *Trail) steps() []BranchStep {
	if t == nil {
		return nil
	}
	return t.Steps
}

// Evidence is one stall's complete audit record: identity, bounds,
// verdict, the decision path that produced the verdict, the ±K
// record window around the silent gap, and the nearby recorder
// events.
type Evidence struct {
	Ref Ref

	// StartIdx/EndIdx index the records bounding the gap: the last
	// record before the silence and the record that ended it.
	StartIdx int
	EndIdx   int
	Start    sim.Time
	End      sim.Time

	// Cause is the Figure-5 verdict; SubCause the Table-5
	// retransmission sub-cause ("" otherwise); DoubleKind the Table-6
	// split for double retransmissions. All three, and Decision, stay
	// empty until the stall settles.
	Cause      string
	SubCause   string
	DoubleKind string

	// Decision is the branch-by-branch classification walk.
	Decision []BranchStep
	// Window holds the records around the gap: up to WindowK before,
	// the closing record, and up to WindowK after.
	Window []RecSample

	// events holds the window's events of record StartIdx − WindowK
	// and later, encoded (see Events).
	events []byte
	// postWanted counts the post-gap samples still to capture.
	postWanted int
}

// Events decodes the events near the stall, oldest first: every
// event attributed to record StartIdx − WindowK or later that the
// window held at close time.
func (e *Evidence) Events() []Event {
	count := 0
	for off := 0; off < len(e.events); count++ {
		off += int(e.events[off] >> 2)
	}
	if count == 0 {
		return nil
	}
	return decodeEvents(e.events, count)
}

// Duration is End − Start.
func (e *Evidence) Duration() time.Duration { return e.End.Sub(e.Start) }

// EvidenceJSON is the wire form of an Evidence for the admin plane
// and JSONL exports.
type EvidenceJSON struct {
	Ref        Ref          `json:"ref"`
	StartIdx   int          `json:"start_idx"`
	EndIdx     int          `json:"end_idx"`
	StartS     float64      `json:"start_s"`
	EndS       float64      `json:"end_s"`
	DurationMS float64      `json:"duration_ms"`
	Cause      string       `json:"cause"`
	SubCause   string       `json:"sub_cause,omitempty"`
	DoubleKind string       `json:"double_kind,omitempty"`
	Decision   []BranchStep `json:"decision"`
	Window     []SampleJSON `json:"window"`
	Events     []EventJSON  `json:"events,omitempty"`
}

// SampleJSON is the wire form of a RecSample.
type SampleJSON struct {
	Idx   int     `json:"idx"`
	TS    float64 `json:"t_s"`
	Dir   string  `json:"dir"`
	Seq   uint32  `json:"seq"`
	Ack   uint32  `json:"ack"`
	Len   int     `json:"len"`
	Wnd   int     `json:"rwnd"`
	Flags string  `json:"flags"`
	Sack  int     `json:"sack_blocks,omitempty"`
}

// EventJSON is the wire form of an Event.
type EventJSON struct {
	Idx  int     `json:"idx"`
	TS   float64 `json:"t_s"`
	Kind string  `json:"kind"`
	Name string  `json:"name"`
	A    int64   `json:"a"`
	B    int64   `json:"b"`
	C    int64   `json:"c"`
}

// JSON converts a sample.
func (s RecSample) JSON() SampleJSON {
	return SampleJSON{
		Idx:   s.Idx,
		TS:    s.T.Seconds(),
		Dir:   s.Dir().String(),
		Seq:   s.Seq,
		Ack:   s.Ack,
		Len:   int(s.Len),
		Wnd:   int(s.Wnd),
		Flags: s.Flags.String(),
		Sack:  int(s.Sack),
	}
}

// JSON converts an event.
func (e Event) JSON() EventJSON {
	return EventJSON{
		Idx:  e.Idx,
		TS:   e.T.Seconds(),
		Kind: e.Kind.String(),
		Name: e.Name.String(),
		A:    e.A,
		B:    e.B,
		C:    e.C,
	}
}

// JSON converts the evidence (deep copy; safe to marshal after the
// flow lock is released).
func (e *Evidence) JSON() EvidenceJSON {
	out := EvidenceJSON{
		Ref:        e.Ref,
		StartIdx:   e.StartIdx,
		EndIdx:     e.EndIdx,
		StartS:     e.Start.Seconds(),
		EndS:       e.End.Seconds(),
		DurationMS: float64(e.Duration()) / float64(time.Millisecond),
		Cause:      e.Cause,
		SubCause:   e.SubCause,
		DoubleKind: e.DoubleKind,
	}
	out.Decision = make([]BranchStep, len(e.Decision))
	for i, s := range e.Decision {
		out.Decision[i] = BranchStep{Rule: s.Rule, Taken: s.Taken, Vars: append([]KV(nil), s.Vars...)}
	}
	out.Window = make([]SampleJSON, 0, len(e.Window))
	for _, s := range e.Window {
		out.Window = append(out.Window, s.JSON())
	}
	if evs := e.Events(); len(evs) > 0 {
		out.Events = make([]EventJSON, 0, len(evs))
		for _, ev := range evs {
			out.Events = append(out.Events, ev.JSON())
		}
	}
	return out
}
