package promtext

import (
	"strings"
	"testing"
	"unicode/utf8"

	"tcpstall/internal/stats"
)

func panics(fn func()) (msg any) {
	defer func() { msg = recover() }()
	fn()
	return nil
}

// TestNewFamilyRejects: a bad declaration panics, so it fails when the
// declaring package initialises rather than in a scrape.
func TestNewFamilyRejects(t *testing.T) {
	for _, tc := range []struct {
		name, metric string
		typ          Type
		labels       []string
	}{
		{"metric name with a dash", "tapod-stalls", Counter, nil},
		{"metric name starting with a digit", "9lives", Gauge, nil},
		{"empty metric name", "", Gauge, nil},
		{"unknown type", "x_total", "counting", nil},
		{"label with a colon", "x_total", Counter, []string{"a:b"}},
		{"reserved label", "x_total", Counter, []string{"__name"}},
		{"repeated label", "x_total", Counter, []string{"svc", "svc"}},
		{"labelled histogram", "x_ms", Histogram, []string{"svc"}},
		{"labelled summary", "x_ms", Summary, []string{"svc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if panics(func() { NewFamily(tc.metric, tc.typ, "help", tc.labels...) }) == nil {
				t.Errorf("NewFamily(%q, %q, %q) did not panic", tc.metric, tc.typ, tc.labels)
			}
		})
	}
	if msg := panics(func() { NewFamily("ns:x_total", Counter, "help", "service", "cause") }); msg != nil {
		t.Errorf("valid family panicked: %v", msg)
	}
}

// TestWriterMisuse: every way to write a sample outside its family's
// declaration panics instead of emitting a broken exposition.
func TestWriterMisuse(t *testing.T) {
	ctr := NewFamily("c_total", Counter, "C.", "reason")
	other := NewFamily("o_total", Counter, "O.")
	hist := NewFamily("h_ms", Histogram, "H.")
	sum := NewFamily("s_ms", Summary, "S.")
	for name, fn := range map[string]func(*Writer){
		"missing label value":  func(w *Writer) { w.Uint(ctr, 1) },
		"extra label value":    func(w *Writer) { w.Uint(ctr, 1, "a", "b") },
		"family written twice": func(w *Writer) { w.Uint(ctr, 1, "a"); w.Uint(other, 1); w.Uint(ctr, 2, "b") },
		"scalar on histogram":  func(w *Writer) { w.Uint(hist, 1) },
		"scalar on summary":    func(w *Writer) { w.Float(sum, 1) },
		"histogram twice": func(w *Writer) {
			w.Histogram(hist, stats.HistogramState{Counts: []uint64{0}})
			w.Histogram(hist, stats.HistogramState{Counts: []uint64{0}})
		},
		"histogram on counter":  func(w *Writer) { w.Histogram(ctr, stats.HistogramState{Counts: []uint64{0}}) },
		"summary on histogram":  func(w *Writer) { w.Summary(hist, 0) },
		"counts on a histogram": func(w *Writer) { w.Counts(hist, map[string]uint64{"a": 1}) },
	} {
		if panics(func() { fn(NewWriter(&strings.Builder{})) }) == nil {
			t.Errorf("%s did not panic", name)
		}
	}
}

func TestWriterOutput(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	f := NewFamily("x_total", Counter, "Back\\slash and\nnewline.", "svc")
	w.Family(f)
	w.Uint(f, 1, "tab\there \"quoted\" back\\slash\nnewline \xff")
	w.Float(f, 0.1, "")
	w.Counts(NewFamily("r_total", Counter, "R.", "reason"), map[string]uint64{"b": 2, "a": 1})
	w.Family(NewFamily("empty", Gauge, "E."))
	w.Histogram(NewFamily("h_ms", Histogram, "H."), stats.HistogramState{Bounds: []float64{0.5, 10}, Counts: []uint64{1, 0, 2}, Sum: 99.5})
	w.Summary(NewFamily("s_ms", Summary, "S."), 7, Quantile{0.5, 1.25}, Quantile{0.99, 3})
	const want = `# HELP x_total Back\\slash and\nnewline.
# TYPE x_total counter
x_total{svc="tab	here \"quoted\" back\\slash\nnewline ` + string(utf8.RuneError) + `"} 1
x_total{svc=""} 0.1
# HELP r_total R.
# TYPE r_total counter
r_total{reason="a"} 1
r_total{reason="b"} 2
# HELP empty E.
# TYPE empty gauge
# HELP h_ms H.
# TYPE h_ms histogram
h_ms_bucket{le="0.5"} 1
h_ms_bucket{le="10"} 1
h_ms_bucket{le="+Inf"} 3
h_ms_sum 99.5
h_ms_count 3
# HELP s_ms S.
# TYPE s_ms summary
s_ms{quantile="0.5"} 1.25
s_ms{quantile="0.99"} 3
s_ms_count 7
`
	if got := sb.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
