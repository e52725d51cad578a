package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummary(t *testing.T) {
	var s Summary
	if s != (Summary{}) {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Sum != 40 {
		t.Errorf("Sum = %v, want 40", s.Sum)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestQuantile(t *testing.T) {
	s := NewSample(0)
	if s.Quantile(0.5) != 0 {
		t.Error("empty sample quantile should be 0")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.9, 90.1},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(4)
	s.AddAll([]float64{1, 2, 2, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := s.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFSeries(t *testing.T) {
	s := NewSample(0)
	s.AddAll([]float64{10, 20, 30})
	pts := s.CDFSeries([]float64{5, 15, 35})
	want := []float64{0, 1.0 / 3, 1}
	for i, p := range pts {
		if p.F != want[i] {
			t.Errorf("pts[%d].F = %v, want %v", i, p.F, want[i])
		}
	}
}

func TestGrids(t *testing.T) {
	g := LinearGrid(0, 10, 5)
	if len(g) != 6 || g[0] != 0 || g[5] != 10 || g[3] != 6 {
		t.Errorf("LinearGrid = %v", g)
	}
	lg := LogGrid(1, 10000, 4)
	if len(lg) != 5 {
		t.Fatalf("LogGrid len = %d", len(lg))
	}
	for i, want := range []float64{1, 10, 100, 1000, 10000} {
		if math.Abs(lg[i]-want)/want > 1e-9 {
			t.Errorf("LogGrid[%d] = %v, want %v", i, lg[i], want)
		}
	}
	if !sort.Float64sAreSorted(lg) {
		t.Error("LogGrid not sorted")
	}
	defer func() {
		if recover() == nil {
			t.Error("LogGrid with non-positive bound should panic")
		}
	}()
	LogGrid(0, 1, 3)
}

func TestGridsDegenerate(t *testing.T) {
	if g := LinearGrid(0, 1, 0); len(g) != 2 {
		t.Errorf("LinearGrid n<1 should clamp: %v", g)
	}
	if g := LogGrid(1, 2, 0); len(g) != 2 {
		t.Errorf("LogGrid n<1 should clamp: %v", g)
	}
}

// Properties of the empirical CDF: monotone, 0 below min, 1 at max.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := NewSample(len(vals))
		s.AddAll(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if s.CDF(math.Nextafter(sorted[0], math.Inf(-1))) != 0 {
			return false
		}
		if s.CDF(sorted[len(sorted)-1]) != 1 {
			return false
		}
		prev := -1.0
		for _, x := range sorted {
			f := s.CDF(x)
			if f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantile and CDF are approximate inverses.
func TestPropertyQuantileCDFInverse(t *testing.T) {
	f := func(seed uint8) bool {
		s := NewSample(100)
		for i := 0; i < 100; i++ {
			s.Add(float64((int(seed)+i*37)%101) / 10)
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			x := s.Quantile(q)
			if s.CDF(x) < q-0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X: demo", "service", "#", "T")
	tab.AddRow("cloud stor.", "8.5", "22.8")
	tab.AddRow("web search", "65.9") // short row pads
	out := tab.String()
	for _, want := range []string{"Table X: demo", "service", "cloud stor.", "22.8", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("line count = %d, want 5:\n%s", len(lines), out)
	}
}

func TestRenderCDFs(t *testing.T) {
	s1, s2 := NewSample(0), NewSample(0)
	s1.AddAll([]float64{1, 2, 3})
	s2.AddAll([]float64{2, 3, 4})
	grid := []float64{1, 2, 3, 4}
	out := RenderCDFs("Figure X", "x(ms)", []string{"a", "b"},
		[][]CDFPoint{s1.CDFSeries(grid), s2.CDFSeries(grid)})
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "x(ms)") {
		t.Errorf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "0.333") {
		t.Errorf("missing F values:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched names/series should panic")
		}
	}()
	RenderCDFs("t", "x", []string{"a"}, nil)
}

func TestPercent(t *testing.T) {
	if got := Percent(0.345); got != "34.5" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(0); got != "0.0" {
		t.Errorf("Percent(0) = %q", got)
	}
}

func TestFormatX(t *testing.T) {
	cases := map[float64]string{
		5:      "5",
		123:    "123",
		1.5:    "1.50",
		0.25:   "0.2500",
		1456.7: "1457",
	}
	for x, want := range cases {
		if got := formatX(x); got != want {
			t.Errorf("formatX(%v) = %q, want %q", x, got, want)
		}
	}
}

func TestSummaryMergeSaturatesCount(t *testing.T) {
	for _, order := range [][]int{{math.MaxInt, 1, 1}, {1, math.MaxInt, 1}, {1, 1, math.MaxInt}} {
		var s Summary
		for _, n := range order {
			s.Merge(Summary{N: n, Sum: 1, Min: 1, Max: 1})
		}
		if s.N != math.MaxInt {
			t.Errorf("merge of counts %v = %d, want MaxInt", order, s.N)
		}
	}
}
