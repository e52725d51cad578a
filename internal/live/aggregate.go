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
// Stall counters are fed live as stalls close (top-level causes are
// final at close); the Table-5 retransmission breakdown is folded in
// at eviction from each flow's settled analysis, since sub-causes can
// be refined by post-hoc evidence.
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

// stallClosed folds one live stall event in.
func (ag *aggregates) stallClosed(ls core.LiveStall) {
	k := CauseKey{Service: ls.Service, Cause: ls.Stall.Cause}
	ag.stallCount[k]++
	ag.stallTime[k] += ls.Stall.Duration
	ag.durationsMS.Add(ls.Stall.Duration)
}

// flowEvicted folds a completed flow's settled analysis in.
func (ag *aggregates) flowEvicted(reason string, a *core.FlowAnalysis, truncated bool) {
	ag.flowsEvicted[reason]++
	if truncated {
		ag.flowsTruncated++
	}
	for _, st := range a.Stalls {
		if st.Cause != core.CauseTimeoutRetrans {
			continue
		}
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

// windowBuckets is how many buckets a shard's rolling window spans
// Config.Window in.
const windowBuckets = 12

// rollWindow is a ring of time buckets implementing the rolling
// aggregation window: bucket i holds epoch e ≡ i (mod len), and a
// bucket is reset the first time a newer epoch lands on it, so stale
// counters age out without a sweeper.
type rollWindow struct {
	step    time.Duration
	buckets []wbucket
}

type wbucket struct {
	epoch     int64 // step index since the Unix epoch; -1 = empty
	count     map[CauseKey]uint64
	stallTime map[CauseKey]time.Duration
}

func newRollWindow(span time.Duration, buckets int) *rollWindow {
	if buckets < 1 {
		buckets = 1
	}
	step := span / time.Duration(buckets)
	if step <= 0 {
		step = time.Second
	}
	w := &rollWindow{step: step, buckets: make([]wbucket, buckets)}
	for i := range w.buckets {
		w.buckets[i] = wbucket{
			epoch:     -1,
			count:     map[CauseKey]uint64{},
			stallTime: map[CauseKey]time.Duration{},
		}
	}
	return w
}

// stallClosed counts one live stall in the bucket of now.
func (w *rollWindow) stallClosed(now time.Time, ls core.LiveStall) {
	epoch := now.UnixNano() / int64(w.step)
	b := &w.buckets[int(epoch%int64(len(w.buckets)))]
	if b.epoch != epoch {
		b.epoch = epoch
		clear(b.count)
		clear(b.stallTime)
	}
	k := CauseKey{Service: ls.Service, Cause: ls.Stall.Cause}
	b.count[k]++
	b.stallTime[k] += ls.Stall.Duration
}

// WindowSnapshot is the rolling window summed over its live buckets.
type WindowSnapshot struct {
	Span       time.Duration
	StallCount map[CauseKey]uint64
	StallTime  map[CauseKey]time.Duration
}

// snapshot sums the buckets still inside the window ending at now.
func (w *rollWindow) snapshot(now time.Time) WindowSnapshot {
	s := WindowSnapshot{
		Span:       w.step * time.Duration(len(w.buckets)),
		StallCount: map[CauseKey]uint64{},
		StallTime:  map[CauseKey]time.Duration{},
	}
	epoch := now.UnixNano() / int64(w.step)
	oldest := epoch - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch < oldest || b.epoch > epoch {
			continue
		}
		for k, n := range b.count {
			s.StallCount[k] += n
		}
		for k, d := range b.stallTime {
			s.StallTime[k] += d
		}
	}
	return s
}

// mergeWindow folds o's live buckets into s (cross-shard snapshot).
func (s *WindowSnapshot) mergeWindow(o WindowSnapshot) {
	for k, n := range o.StallCount {
		s.StallCount[k] += n
	}
	for k, d := range o.StallTime {
		s.StallTime[k] += d
	}
}
