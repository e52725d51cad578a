package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// encodeDecodeHist pushes a histogram through its wire form plus a
// JSON round trip — exactly what a fleet push does.
func encodeDecodeHist(t *testing.T, h *Histogram) *Histogram {
	t.Helper()
	b, err := json.Marshal(h.State())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var st HistogramState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out, err := HistogramFromState(st)
	if err != nil {
		t.Fatalf("from state: %v", err)
	}
	return out
}

func histsEqual(a, b *Histogram) bool {
	return a.n == b.n && a.sum == b.sum &&
		reflect.DeepEqual(a.bounds, b.bounds) && reflect.DeepEqual(a.counts, b.counts)
}

func TestHistogramSnapshotRoundTripMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := map[string][2][]float64{
		"both_populated": {{0.5, 5, 50, 500, 7}, {2, 20, 200}},
		"empty_left":     {{}, {3, 30}},
		"empty_right":    {{1, 1000}, {}},
		"both_empty":     {{}, {}},
		"single_sample":  {{42}, {0.1}},
	}
	for name, obs := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := NewHistogram(bounds), NewHistogram(bounds)
			for _, v := range obs[0] {
				a.Add(ms(v))
			}
			for _, v := range obs[1] {
				b.Add(ms(v))
			}
			// Direct merge of the live accumulators.
			direct := NewHistogram(bounds)
			direct.Merge(a)
			direct.Merge(b)
			// Merge of the encode→decode twins.
			wired := NewHistogram(bounds)
			wired.Merge(encodeDecodeHist(t, a))
			wired.Merge(encodeDecodeHist(t, b))
			if !histsEqual(direct, wired) {
				t.Errorf("wire merge diverged: direct n=%d sum=%v, wired n=%d sum=%v",
					direct.n, direct.sum, wired.n, wired.sum)
			}
			if direct.N() > 0 && wired.Quantile(0.99) != direct.Quantile(0.99) {
				t.Errorf("p99 diverged: direct %g wired %g", direct.Quantile(0.99), wired.Quantile(0.99))
			}
		})
	}
}

func TestHistogramFromStateRejectsCorruptWire(t *testing.T) {
	if _, err := HistogramFromState(HistogramState{
		Bounds: []float64{10, 5}, Counts: []uint64{0, 0, 0},
	}); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := HistogramFromState(HistogramState{
		Bounds: []float64{1, 2}, Counts: []uint64{1, 2},
	}); err == nil {
		t.Error("short counts accepted")
	}
	if _, err := HistogramFromState(HistogramState{Counts: []uint64{3}}); err != nil {
		t.Errorf("boundless histogram (single +Inf bucket) rejected: %v", err)
	}
}

func TestHistogramStateCopies(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Add(ms(1.5))
	st := h.State()
	st.Counts[1] = 999
	st.Bounds[0] = -1
	if h.counts[1] == 999 || h.bounds[0] == -1 {
		t.Error("State aliases internal storage")
	}
}

func TestSummarySnapshotRoundTripMerge(t *testing.T) {
	cases := map[string][2][]float64{
		"both_populated": {{3, -1, 4, 1, 5}, {9, 2, 6}},
		"empty_left":     {{}, {7}},
		"empty_right":    {{-2.5}, {}},
		"both_empty":     {{}, {}},
		"single_sample":  {{0}, {0}},
	}
	for name, obs := range cases {
		t.Run(name, func(t *testing.T) {
			var a, b Summary
			for _, v := range obs[0] {
				a.Add(v)
			}
			for _, v := range obs[1] {
				b.Add(v)
			}
			var direct Summary
			direct.Merge(a)
			direct.Merge(b)

			var wired Summary
			for _, src := range []*Summary{&a, &b} {
				bts, err := json.Marshal(src.State())
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var st SummaryState
				if err := json.Unmarshal(bts, &st); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				dec, err := SummaryFromState(st)
				if err != nil {
					t.Fatalf("from state: %v", err)
				}
				wired.Merge(dec)
			}
			if wired != direct {
				t.Errorf("wire merge diverged: direct %+v wired %+v", direct, wired)
			}
		})
	}
}

func TestSummaryFromStateRejectsNegativeCount(t *testing.T) {
	if _, err := SummaryFromState(SummaryState{N: -1, Sum: 3}); err == nil {
		t.Error("negative count accepted")
	}
}
