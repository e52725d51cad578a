package core

import (
	"time"

	"tcpstall/internal/trace"
)

// Report aggregates per-flow analyses into the paper's table shapes.
type Report struct {
	Flows        int
	FlowsStalled int

	TotalStalls    int
	TotalStallTime time.Duration

	// Table 3: volume and time per cause.
	CountByCause map[Cause]int
	TimeByCause  map[Cause]time.Duration

	// Table 5: retransmission-stall breakdown.
	RetransCountByCause map[RetransCause]int
	RetransTimeByCause  map[RetransCause]time.Duration

	// Table 6: double-retransmission kinds by stall time.
	DoubleTimeByKind map[DoubleKind]time.Duration

	// Table 7: tail-retransmission stalls by congestion state.
	TailTimeByState map[trace.CongState]time.Duration

	// Table 4 ingredients.
	FlowsZeroRwnd int
}

// NewReport aggregates analyses.
func NewReport(analyses []*FlowAnalysis) *Report {
	r := &Report{
		CountByCause:        map[Cause]int{},
		TimeByCause:         map[Cause]time.Duration{},
		RetransCountByCause: map[RetransCause]int{},
		RetransTimeByCause:  map[RetransCause]time.Duration{},
		DoubleTimeByKind:    map[DoubleKind]time.Duration{},
		TailTimeByState:     map[trace.CongState]time.Duration{},
	}
	for _, a := range analyses {
		r.Add(a)
	}
	return r
}

// Add folds one flow's analysis into the report.
func (r *Report) Add(a *FlowAnalysis) {
	r.Flows++
	if len(a.Stalls) > 0 {
		r.FlowsStalled++
	}
	if a.ZeroRwndSeen {
		r.FlowsZeroRwnd++
	}
	for _, st := range a.Stalls {
		r.TotalStalls++
		r.TotalStallTime += st.Duration
		r.CountByCause[st.Cause]++
		r.TimeByCause[st.Cause] += st.Duration
		if st.Cause == CauseTimeoutRetrans {
			r.RetransCountByCause[st.RetransCause]++
			r.RetransTimeByCause[st.RetransCause] += st.Duration
			switch st.RetransCause {
			case RetransDouble:
				r.DoubleTimeByKind[st.DoubleKind] += st.Duration
			case RetransTail:
				r.TailTimeByState[st.TailState] += st.Duration
			}
		}
	}
}

// Merge folds another report into r. Every field is a count or a
// duration sum, so merging is associative and commutative: per-worker
// reports built over any sharding of the flows combine into exactly
// the report NewReport would build over all of them.
func (r *Report) Merge(o *Report) {
	r.Flows += o.Flows
	r.FlowsStalled += o.FlowsStalled
	r.FlowsZeroRwnd += o.FlowsZeroRwnd
	r.TotalStalls += o.TotalStalls
	r.TotalStallTime += o.TotalStallTime
	for c, n := range o.CountByCause {
		r.CountByCause[c] += n
	}
	for c, d := range o.TimeByCause {
		r.TimeByCause[c] += d
	}
	for c, n := range o.RetransCountByCause {
		r.RetransCountByCause[c] += n
	}
	for c, d := range o.RetransTimeByCause {
		r.RetransTimeByCause[c] += d
	}
	for k, d := range o.DoubleTimeByKind {
		r.DoubleTimeByKind[k] += d
	}
	for s, d := range o.TailTimeByState {
		r.TailTimeByState[s] += d
	}
}

// CausePctCount reports the volume share of a cause (0..1).
func (r *Report) CausePctCount(c Cause) float64 {
	if r.TotalStalls == 0 {
		return 0
	}
	return float64(r.CountByCause[c]) / float64(r.TotalStalls)
}

// CausePctTime reports the time share of a cause (0..1).
func (r *Report) CausePctTime(c Cause) float64 {
	if r.TotalStallTime == 0 {
		return 0
	}
	return float64(r.TimeByCause[c]) / float64(r.TotalStallTime)
}

// RetransPctCount reports a sub-cause's share of retransmission-stall
// volume.
func (r *Report) RetransPctCount(c RetransCause) float64 {
	total := r.CountByCause[CauseTimeoutRetrans]
	if total == 0 {
		return 0
	}
	return float64(r.RetransCountByCause[c]) / float64(total)
}

// RetransPctTime reports a sub-cause's share of retransmission-stall
// time.
func (r *Report) RetransPctTime(c RetransCause) float64 {
	total := r.TimeByCause[CauseTimeoutRetrans]
	if total == 0 {
		return 0
	}
	return float64(r.RetransTimeByCause[c]) / float64(total)
}

// DoublePctTime reports a kind's share of double-retransmission stall
// time (Table 6).
func (r *Report) DoublePctTime(k DoubleKind) float64 {
	total := r.RetransTimeByCause[RetransDouble]
	if total == 0 {
		return 0
	}
	return float64(r.DoubleTimeByKind[k]) / float64(total)
}

// TailPctTime reports a state's share of tail-retransmission stall
// time (Table 7).
func (r *Report) TailPctTime(s trace.CongState) float64 {
	total := r.RetransTimeByCause[RetransTail]
	if total == 0 {
		return 0
	}
	return float64(r.TailTimeByState[s]) / float64(total)
}
