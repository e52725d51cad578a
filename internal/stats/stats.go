// Package stats provides the small statistical toolkit the
// measurement study needs: empirical CDFs, quantiles, and running
// summaries, plus text renderers that print tables and CDF series the
// way the paper reports them.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a running mean/min/max/count without retaining
// samples.
type Summary struct {
	N     int
	Sum   float64
	Min   float64
	Max   float64
	sumSq float64
}

// Add folds a sample into the summary.
func (s *Summary) Add(v float64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.N++
	s.Sum += v
	s.sumSq += v * v
}

// Mean reports the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Merge folds another summary into s. The operation is associative
// and commutative, so per-worker summaries built by the parallel
// pipeline combine into the same totals regardless of how the work
// was sharded. N saturates at math.MaxInt instead of wrapping;
// saturating addition of non-negative counts keeps both properties.
func (s *Summary) Merge(o Summary) {
	if o.N == 0 {
		return
	}
	if s.N == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.N == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	if o.N > math.MaxInt-s.N {
		s.N = math.MaxInt
	} else {
		s.N += o.N
	}
	s.Sum += o.Sum
	s.sumSq += o.sumSq
}

// StdDev reports the population standard deviation (0 when empty).
func (s *Summary) StdDev() float64 {
	if s.N == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.N) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Sample is a growable collection of float64 observations supporting
// quantiles and CDF evaluation. It sorts lazily.
type Sample struct {
	data   []float64
	sorted bool
}

// NewSample returns an empty sample, optionally pre-sized.
func NewSample(capacity int) *Sample {
	return &Sample{data: make([]float64, 0, capacity)}
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.data = append(s.data, v)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs []float64) {
	s.data = append(s.data, vs...)
	s.sorted = false
}

// Reset empties the sample, retaining its storage.
func (s *Sample) Reset() {
	s.data = s.data[:0]
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.data) }

// Values returns the observations in ascending order. The returned
// slice aliases internal storage; do not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.data
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

// Mean reports the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

// Quantile reports the q-quantile (q in [0,1]) with linear
// interpolation between order statistics. Returns 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.data[0]
	}
	if q >= 1 {
		return s.data[len(s.data)-1]
	}
	pos := q * float64(len(s.data)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.data[lo]
	}
	frac := pos - float64(lo)
	return s.data[lo]*(1-frac) + s.data[hi]*frac
}

// Median is Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// CDF reports the empirical distribution function F(x) = P(X ≤ x).
func (s *Sample) CDF(x float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sort()
	// Count of values ≤ x.
	n := sort.Search(len(s.data), func(i int) bool { return s.data[i] > x })
	return float64(n) / float64(len(s.data))
}

// CDFPoint is one (x, F(x)) evaluation of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// CDFSeries evaluates the empirical CDF on the given grid of x values.
func (s *Sample) CDFSeries(grid []float64) []CDFPoint {
	pts := make([]CDFPoint, len(grid))
	for i, x := range grid {
		pts[i] = CDFPoint{X: x, F: s.CDF(x)}
	}
	return pts
}

// LinearGrid returns n+1 evenly spaced points covering [lo, hi].
func LinearGrid(lo, hi float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	grid := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		grid[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return grid
}

// LogGrid returns n+1 logarithmically spaced points covering [lo, hi].
// lo and hi must be positive.
func LogGrid(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("stats: LogGrid bounds must be positive")
	}
	if n < 1 {
		n = 1
	}
	grid := make([]float64, n+1)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i <= n; i++ {
		grid[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n))
	}
	return grid
}

// Percent formats a ratio as a percentage with one decimal, e.g. 0.345
// → "34.5". Used by the paper-style tables.
func Percent(ratio float64) string {
	return fmt.Sprintf("%.1f", ratio*100)
}
