package live

import (
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/stats"
)

// CauseKey labels a stall counter by generating service and Figure-5
// cause.
type CauseKey struct {
	Service string
	Cause   core.Cause
}

// DurationBoundsMS is the stall-duration histogram layout: roughly
// logarithmic from one delayed-ACK up to the paper's multi-minute RTO
// backoff tail, in milliseconds.
var DurationBoundsMS = []float64{
	50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400,
}

// aggregates accumulates one shard's counters. All fields are owned
// by the shard (guarded by its mutex); snapshot() copies them out.
// Each stall is folded in once, when its verdict settles: its cause
// cells and, for a timeout retransmission, its Table-5 cells.
type aggregates struct {
	flowsSeen      uint64
	flowsEvicted   map[string]uint64 // by eviction reason
	flowsTruncated uint64
	recordsFed     uint64
	recordsCapDrop uint64 // dropped by the per-flow record cap

	// flight-recorder evidence evictions, folded in at flow eviction.
	flightEvidenceDrops uint64

	// Two-phase triage accounting (all zero when Config.Triage is
	// nil). triFastRecords counts records handled by the fast path;
	// triPromotions counts promotions by symptom name, of which
	// triRepromotions re-attached a parked analyzer and
	// triTruncatedPromotions replayed from a ring that had already
	// dropped history.
	triFastRecords         uint64
	triPromotions          map[string]uint64
	triRepromotions        uint64
	triDemotions           uint64
	triTruncatedPromotions uint64

	stallCount  map[CauseKey]uint64
	stallTime   map[CauseKey]time.Duration
	durationsMS *stats.Histogram

	retransCount map[core.RetransCause]uint64
	retransTime  map[core.RetransCause]time.Duration
}

func newAggregates() *aggregates {
	return &aggregates{
		flowsEvicted:  map[string]uint64{},
		triPromotions: map[string]uint64{},
		stallCount:    map[CauseKey]uint64{},
		stallTime:     map[CauseKey]time.Duration{},
		durationsMS:   stats.NewHistogram(DurationBoundsMS),
		retransCount:  map[core.RetransCause]uint64{},
		retransTime:   map[core.RetransCause]time.Duration{},
	}
}

// stallSettled folds one settled stall in.
func (ag *aggregates) stallSettled(ls core.LiveStall) {
	st := &ls.Stall
	k := CauseKey{Service: ls.Service, Cause: st.Cause}
	ag.stallCount[k]++
	ag.stallTime[k] += st.Duration
	ag.durationsMS.Add(st.Duration)
	if st.Cause == core.CauseTimeoutRetrans {
		ag.retransCount[st.RetransCause]++
		ag.retransTime[st.RetransCause] += st.Duration
	}
}

// merge folds o into ag (for cross-shard snapshots).
func (ag *aggregates) merge(o *aggregates) {
	ag.flowsSeen += o.flowsSeen
	ag.flowsTruncated += o.flowsTruncated
	ag.recordsFed += o.recordsFed
	ag.recordsCapDrop += o.recordsCapDrop
	ag.flightEvidenceDrops += o.flightEvidenceDrops
	ag.triFastRecords += o.triFastRecords
	ag.triRepromotions += o.triRepromotions
	ag.triDemotions += o.triDemotions
	ag.triTruncatedPromotions += o.triTruncatedPromotions
	for s, n := range o.triPromotions {
		ag.triPromotions[s] += n
	}
	for r, n := range o.flowsEvicted {
		ag.flowsEvicted[r] += n
	}
	for k, n := range o.stallCount {
		ag.stallCount[k] += n
	}
	for k, d := range o.stallTime {
		ag.stallTime[k] += d
	}
	ag.durationsMS.Merge(o.durationsMS)
	for c, n := range o.retransCount {
		ag.retransCount[c] += n
	}
	for c, d := range o.retransTime {
		ag.retransTime[c] += d
	}
}
