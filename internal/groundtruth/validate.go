package groundtruth

import (
	"fmt"
	"sort"
	"strings"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// Cause labels one TAPO-detected stall with the simulator's actual
// cause, by matching the stall-ending record against the recorded
// events at the same virtual instant. The precedence mirrors TAPO's
// Figure-5 walk so agreement means "right for the right reason":
//
//  1. the advertised window was zero when the silence began;
//  2. the stall ends with a retransmission the sender actually put on
//     the wire at that instant (matched by time AND wire seq, so a
//     partial-ACK-triggered retransmission coinciding with an
//     incoming ack does not mislabel the ack);
//  3. the stall ends with a delayed application write (head delay →
//     data unavailable, mid-response pause → resource constraint);
//  4. the stall ends with a client request arriving (no data
//     outstanding → client idle, otherwise the request was merely
//     late → packet delay);
//  5. otherwise an incoming segment broke the silence → packet delay;
//     anything else is undetermined.
func (ft *FlowTruth) Cause(f *trace.Flow, st *core.Stall) core.Cause {
	if ft.ZeroAt(st.Start) {
		return core.CauseZeroWindow
	}
	end := &f.Records[st.EndRecIdx]
	if end.Dir == trace.DirOut && end.Seg.Len > 0 {
		for i := range ft.Events {
			e := &ft.Events[i]
			if e.T == st.End && e.Kind == EventRetrans && e.WireSeq == end.Seg.Seq {
				return core.CauseTimeoutRetrans
			}
		}
		for i := range ft.Events {
			e := &ft.Events[i]
			if e.T == st.End && e.Kind == EventAppWrite {
				if e.Write == tcpsim.WriteAfterHeadDelay {
					return core.CauseDataUnavailable
				}
				return core.CauseResourceConstraint
			}
		}
	}
	if end.Dir == trace.DirIn && end.Seg.Len > 0 {
		for i := range ft.Events {
			e := &ft.Events[i]
			if e.T == st.End && e.Kind == EventRequest {
				if e.Outstanding {
					return core.CausePacketDelay
				}
				return core.CauseClientIdle
			}
		}
	}
	if end.Dir == trace.DirIn {
		return core.CausePacketDelay
	}
	return core.CauseUndetermined
}

// Disagreement is one stall where TAPO's wire-only verdict differs
// from the simulator's privileged truth, carrying the flight-recorder
// evidence so the misclassification can be debugged from the report
// alone: which Figure-5/Table-5 branches fired, with which values.
type Disagreement struct {
	FlowID     string
	Stall      int // monotonic per-flow stall ID
	Truth      core.Cause
	Predicted  core.Cause
	Start, End sim.Time
	// Evidence is TAPO's decision path and packet window for this
	// stall; nil when grading ran without a recorder or the evidence
	// entry was evicted from the per-flow ring.
	Evidence *flight.Evidence
}

// String renders the disagreement with its decision path, one branch
// per line.
func (d *Disagreement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %s stall #%d [%.3fs..%.3fs]: truth=%s tapo=%s",
		d.FlowID, d.Stall, d.Start.Seconds(), d.End.Seconds(), d.Truth, d.Predicted)
	if d.Evidence == nil {
		b.WriteString("\n    (no evidence captured)")
		return b.String()
	}
	for _, step := range d.Evidence.Decision {
		b.WriteString("\n    ")
		b.WriteString(step.String())
	}
	return b.String()
}

// Report aggregates a differential-validation run: the confusion
// matrix between ground-truth causes (rows) and TAPO's classification
// (columns), over every stall of every graded flow.
type Report struct {
	Flows  int
	Stalls int
	Agree  int
	// Confusion counts stalls per (truth, predicted) cause pair.
	Confusion map[[2]core.Cause]int
	// Disagreements lists every graded stall where truth != predicted,
	// each with its flight evidence (when a recorder was attached).
	Disagreements []Disagreement
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{Confusion: make(map[[2]core.Cause]int)}
}

// Accuracy is the aggregate classification agreement in [0, 1];
// 1 when no stalls were graded.
func (r *Report) Accuracy() float64 {
	if r.Stalls == 0 {
		return 1
	}
	return float64(r.Agree) / float64(r.Stalls)
}

// Merge folds another report's counts into r.
func (r *Report) Merge(o *Report) {
	r.Flows += o.Flows
	r.Stalls += o.Stalls
	r.Agree += o.Agree
	for k, v := range o.Confusion {
		r.Confusion[k] += v
	}
	r.Disagreements = append(r.Disagreements, o.Disagreements...)
}

// AddFlow grades one analyzed flow against its truth log. rec, when
// non-nil, supplies the flight evidence attached to each disagreement
// (it must be the recorder that observed a's analysis).
func (r *Report) AddFlow(f *trace.Flow, ft *FlowTruth, a *core.FlowAnalysis, rec *flight.Recorder) {
	r.Flows++
	for i := range a.Stalls {
		st := &a.Stalls[i]
		truth := ft.Cause(f, st)
		r.Stalls++
		if truth == st.Cause {
			r.Agree++
		} else {
			d := Disagreement{
				FlowID:    a.FlowID,
				Stall:     st.ID,
				Truth:     truth,
				Predicted: st.Cause,
				Start:     st.Start,
				End:       st.End,
			}
			if rec != nil {
				d.Evidence = rec.Evidence(st.ID)
			}
			r.Disagreements = append(r.Disagreements, d)
		}
		r.Confusion[[2]core.Cause{truth, st.Cause}]++
	}
}

// Validate runs TAPO over each flow with a flight recorder attached
// and grades every stall; flows and truths are parallel slices (a nil
// truth skips the flow). Every disagreement in the report carries its
// evidence — the decision path behind the wrong verdict.
func Validate(flows []*trace.Flow, truths []*FlowTruth, cfg core.Config) *Report {
	rep := NewReport()
	for i, f := range flows {
		if f == nil || i >= len(truths) || truths[i] == nil {
			continue
		}
		// Offline grading keeps evidence for every stall: a flow can't
		// stall more often than it has records, so this cap never
		// evicts.
		a, rec := core.AnalyzeFlight(f, cfg, flight.Config{MaxStalls: len(f.Records) + 1})
		rep.AddFlow(f, truths[i], a, rec)
	}
	return rep
}

// causesIn lists the causes appearing in the matrix, in declaration
// order (the stable Figure-5 order).
func (r *Report) causesIn() []core.Cause {
	seen := map[core.Cause]bool{}
	for k := range r.Confusion {
		seen[k[0]] = true
		seen[k[1]] = true
	}
	var cs []core.Cause
	for c := range seen {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// String renders the confusion matrix (rows: ground truth, columns:
// TAPO) with the aggregate agreement, in the repo's table style.
func (r *Report) String() string {
	cs := r.causesIn()
	var b strings.Builder
	fmt.Fprintf(&b, "Differential validation: %d flows, %d stalls, agreement %.2f%%\n",
		r.Flows, r.Stalls, 100*r.Accuracy())
	if len(cs) == 0 {
		return b.String()
	}
	w := len("truth\\tapo")
	for _, c := range cs {
		if n := len(c.String()); n > w {
			w = n
		}
	}
	fmt.Fprintf(&b, "%*s", w, "truth\\tapo")
	for _, c := range cs {
		fmt.Fprintf(&b, "  %*s", w, c)
	}
	b.WriteByte('\n')
	for _, truth := range cs {
		fmt.Fprintf(&b, "%*s", w, truth)
		for _, pred := range cs {
			fmt.Fprintf(&b, "  %*d", w, r.Confusion[[2]core.Cause{truth, pred}])
		}
		b.WriteByte('\n')
	}
	if len(r.Disagreements) > 0 {
		const show = 8
		fmt.Fprintf(&b, "disagreements (%d, showing %d):\n",
			len(r.Disagreements), min(show, len(r.Disagreements)))
		for i := range r.Disagreements {
			if i == show {
				break
			}
			fmt.Fprintf(&b, "  %s\n", r.Disagreements[i].String())
		}
	}
	return b.String()
}
