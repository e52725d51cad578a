package stats

import (
	"fmt"
	"time"
)

// This file is the serialization boundary for the fleet tier: each
// accumulator gets a plain, JSON-tagged State twin that round-trips
// losslessly, so a tapod member can ship its rolling aggregates to the
// tapoctl head and the head can reconstruct a mergeable value on the
// other side. The invariant the fleet protocol rests on (pinned by
// TestSnapshotRoundTripMerge) is
//
//	Merge(FromState(a.State()), FromState(b.State())) == direct Merge(a, b)
//
// for every accumulator, including the empty and single-sample edges.

// HistogramState is the wire form of a Histogram. Counts has one
// entry per bound plus the trailing +Inf bucket; the observation
// count is implied (it equals the sum of Counts), so it cannot drift
// out of sync with the buckets in transit. SumNS is the sum of
// observations in nanoseconds.
type HistogramState struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	SumNS  int64     `json:"sum_ns"`
}

// State snapshots the histogram into its wire form. The returned
// slices are copies; mutating them does not affect h.
func (h *Histogram) State() HistogramState {
	return HistogramState{
		Bounds: append([]float64{}, h.bounds...),
		Counts: append([]uint64{}, h.counts...),
		SumNS:  int64(h.sum),
	}
}

// Validate checks the invariants NewHistogram enforces plus the
// bounds/counts length contract — wire data is untrusted input. It
// does not allocate unless it fails.
func (st HistogramState) Validate() error {
	for i := 1; i < len(st.Bounds); i++ {
		if st.Bounds[i] <= st.Bounds[i-1] {
			return fmt.Errorf("stats: histogram state bounds not strictly ascending at index %d", i)
		}
	}
	if len(st.Counts) != len(st.Bounds)+1 {
		return fmt.Errorf("stats: histogram state has %d counts for %d bounds (want %d)",
			len(st.Counts), len(st.Bounds), len(st.Bounds)+1)
	}
	return nil
}

// HistogramFromState reconstructs a Histogram from its wire form,
// rejecting a state that fails Validate.
func HistogramFromState(st HistogramState) (*Histogram, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	h := NewHistogram(append([]float64{}, st.Bounds...))
	var n uint64
	for i, c := range st.Counts {
		h.counts[i] = c
		n += c
	}
	h.n = n
	h.sum = time.Duration(st.SumNS)
	return h, nil
}

// SummaryState is the wire form of a Summary. SumSq rides along so
// StdDev survives the round trip.
type SummaryState struct {
	N     int     `json:"n"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	SumSq float64 `json:"sum_sq"`
}

// State snapshots the summary into its wire form.
func (s *Summary) State() SummaryState {
	return SummaryState{N: s.N, Sum: s.Sum, Min: s.Min, Max: s.Max, SumSq: s.sumSq}
}

// SummaryFromState reconstructs a Summary from its wire form. A
// negative count is rejected: merging it would silently corrupt every
// downstream mean.
func SummaryFromState(st SummaryState) (Summary, error) {
	if st.N < 0 {
		return Summary{}, fmt.Errorf("stats: summary state has negative count %d", st.N)
	}
	return Summary{N: st.N, Sum: st.Sum, Min: st.Min, Max: st.Max, sumSq: st.SumSq}, nil
}
