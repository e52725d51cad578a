package stats

import (
	"math"
	"time"
)

// Histogram counts durations against fixed ascending bucket upper
// bounds in milliseconds, with an implicit +Inf bucket at the end.
// Unlike Sample it retains no observations, so it is cheap enough for
// per-record hot paths (the live monitor's rolling windows) and merges
// in O(buckets). The sum is integer nanoseconds, so merges give the
// same bits in any order. Its buckets, one per bound plus +Inf, are
// what a Prometheus histogram exposition is built from.
type Histogram struct {
	bounds []float64 // milliseconds
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is +Inf
	n      uint64
	sum    time.Duration
}

// NewHistogram builds a histogram over the given ascending upper
// bounds, in milliseconds. The bounds slice is retained; callers must
// not modify it.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Bounds returns the bucket upper bounds (shared; read-only).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Add folds one observation in.
func (h *Histogram) Add(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(h.bounds) && ms > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sum += d
}

// N reports the observation count.
func (h *Histogram) N() uint64 { return h.n }

// Mean reports the observation mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Merge folds another histogram into h. Both must share bounds
// (typically both built by the same NewHistogram call site); merging
// is associative and commutative, so per-shard histograms combine
// into the same totals regardless of sharding.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.counts) != len(h.counts) {
		panic("stats: merging histograms with different bucket layouts")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Quantile estimates the q-quantile (q in [0,1]) in milliseconds by
// linear interpolation within the bucket holding the target rank, the
// same estimate Prometheus's histogram_quantile computes. Returns 0
// when empty. Observations in the +Inf bucket clamp to the highest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the highest finite bound.
				if len(h.bounds) == 0 {
					return math.Inf(1)
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			within := rank - float64(cum-c)
			frac := within / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	if len(h.bounds) == 0 {
		return math.Inf(1)
	}
	return h.bounds[len(h.bounds)-1]
}
