package stats

import (
	"testing"
	"time"
)

// Edge cases the analysis pipeline actually produces: services with
// no stalls (empty series), a single flow (one sample), and metrics
// that never vary (constant series).

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := s.Median(); got != 0 {
		t.Errorf("empty Median = %v, want 0", got)
	}
	if got := s.CDF(1); got != 0 {
		t.Errorf("empty CDF = %v, want 0", got)
	}
}

func TestSampleSingle(t *testing.T) {
	s := NewSample(1)
	s.Add(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("single-sample Quantile(%v) = %v, want 42", q, got)
		}
	}
	if got := s.Mean(); got != 42 {
		t.Errorf("Mean = %v, want 42", got)
	}
	if got := s.CDF(41.9); got != 0 {
		t.Errorf("CDF below sample = %v, want 0", got)
	}
	if got := s.CDF(42); got != 1 {
		t.Errorf("CDF at sample = %v, want 1", got)
	}
}

func TestSampleConstant(t *testing.T) {
	s := NewSample(10)
	for i := 0; i < 10; i++ {
		s.Add(7)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.999, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("constant Quantile(%v) = %v, want 7", q, got)
		}
	}
	if got := s.Mean(); got != 7 {
		t.Errorf("constant Mean = %v, want 7", got)
	}
}

func TestSummaryEmptyAndConstant(t *testing.T) {
	var sum Summary
	if got := sum.Mean(); got != 0 {
		t.Errorf("empty Summary Mean = %v, want 0", got)
	}
	if got := sum.StdDev(); got != 0 {
		t.Errorf("empty Summary StdDev = %v, want 0", got)
	}
	for i := 0; i < 5; i++ {
		sum.Add(3)
	}
	if got := sum.Mean(); got != 3 {
		t.Errorf("constant Summary Mean = %v, want 3", got)
	}
	if got := sum.StdDev(); got != 0 {
		t.Errorf("constant Summary StdDev = %v, want 0", got)
	}
}

// ms converts a millisecond count to the Duration Histogram.Add takes.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	if h.N() != 0 || h.Sum() != 0 {
		t.Fatalf("empty N/Sum = %d/%v", h.N(), h.Sum())
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	for i := 0; i <= 3; i++ {
		if got := h.Cumulative(i); got != 0 {
			t.Errorf("empty Cumulative(%d) = %d", i, got)
		}
	}
}

func TestHistogramSingleAndOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Add(ms(5))
	if h.N() != 1 || h.Count(1) != 1 {
		t.Fatalf("N=%d counts=%v", h.N(), []uint64{h.Count(0), h.Count(1), h.Count(2), h.Count(3)})
	}
	// Quantile interpolates within (1, 10].
	if q := h.Quantile(0.5); q <= 1 || q > 10 {
		t.Errorf("Quantile(0.5) = %v, want in (1,10]", q)
	}

	// An observation beyond every bound lands in +Inf and clamps.
	h.Add(ms(1e9))
	if h.Count(3) != 1 {
		t.Errorf("+Inf bucket count = %d, want 1", h.Count(3))
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("overflow Quantile(0.99) = %v, want clamp to 100", got)
	}
	if got := h.Cumulative(3); got != 2 {
		t.Errorf("Cumulative(+Inf) = %d, want 2", got)
	}
}

func TestHistogramConstantSeries(t *testing.T) {
	h := NewHistogram([]float64{50, 100, 200})
	for i := 0; i < 1000; i++ {
		h.Add(ms(75))
	}
	// Every quantile lies in the one occupied bucket (50, 100].
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got <= 50 || got > 100 {
			t.Errorf("constant Quantile(%v) = %v, want in (50,100]", q, got)
		}
	}
	if got := h.Mean(); got != ms(75) {
		t.Errorf("Mean = %v, want 75ms", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Add(ms(0.5))
	b.Add(ms(1.5))
	b.Add(ms(99))
	a.Merge(b)
	if a.N() != 3 {
		t.Fatalf("merged N = %d, want 3", a.N())
	}
	if a.Count(0) != 1 || a.Count(1) != 1 || a.Count(2) != 1 {
		t.Errorf("merged counts = %d,%d,%d", a.Count(0), a.Count(1), a.Count(2))
	}
	if got, want := a.Sum(), ms(101); got != want {
		t.Errorf("merged Sum = %v, want %v", got, want)
	}
	a.Merge(nil) // no-op
	if a.N() != 3 {
		t.Errorf("nil merge changed N to %d", a.N())
	}
	a.Reset()
	if a.N() != 0 || a.Sum() != 0 || a.Cumulative(2) != 0 {
		t.Errorf("Reset left N=%d Sum=%v", a.N(), a.Sum())
	}

	defer func() {
		if recover() == nil {
			t.Error("layout-mismatched Merge did not panic")
		}
	}()
	c := NewHistogram([]float64{1, 2, 3})
	c.Add(ms(1)) // empty merges are no-ops; only a populated mismatch panics
	a.Merge(c)
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}
