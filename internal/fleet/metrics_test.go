package fleet

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"tcpstall/internal/stats"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exporter")

// TestMetricsGolden pins the head's exposition bytes for a fixed input
// that populates every labelled family, with a quote and a backslash
// in one service name.
func TestMetricsGolden(t *testing.T) {
	odd := `web"search\v2`
	st := HeadStats{
		Members: 3, LiveMembers: 2, Registrations: 4, Restarts: 1, Expiries: 1,
		Pushes: 57, FinalPushes: 1,
		Rejects:       map[string]uint64{"stale_epoch": 1, "duplicate_seq": 2},
		SnapshotBytes: 98765,
		MergeCount:    57, MergeP50MS: 0.125, MergeP99MS: 1.5,
	}
	tot := Totals{Epochs: 4, Counters: Counters{
		Ingested: 123456, RingDrops: 3, RecordsFed: 120000, RecordCapDrops: 456, SampledOut: 7,
		FlowsSeen: 42, FlowsEvicted: map[string]uint64{"lru": 1, "done": 30},
		UnknownConfigKeys: 1, TriageFastRecords: 99000,
		Stalls: []StallCounter{
			{Service: "", Cause: "zero-rwnd", Count: 1, Seconds: 2},
			{Service: "web-search", Cause: "pkt-delay", Count: 3, Seconds: 0.375},
			{Service: odd, Cause: "retransmission", Count: 2, Seconds: 1.25},
		},
		Retrans: []RetransCounter{
			{Subcause: "double-retrans", Count: 1, Seconds: 0.75},
			{Subcause: "tail-retrans", Count: 1, Seconds: 0.5},
		},
		DurationsMS: stats.HistogramState{
			Bounds: []float64{50, 100, 200},
			Counts: []uint64{1, 0, 2, 3},
			Sum:    9630.5,
		},
	}}
	win := WindowTotals{SpanS: 60, Members: 2, Stalls: []StallCounter{
		{Service: odd, Cause: "retransmission", Count: 1, Seconds: 0.45},
	}}

	var buf bytes.Buffer
	writeMetrics(&buf, st, tot, win)
	got := buf.Bytes()

	const path = "testdata/metrics.golden"
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
