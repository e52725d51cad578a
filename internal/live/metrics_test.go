package live

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/stats"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exporter")

// goldenSnapshot populates every labelled family of tapod's /metrics,
// with a quote and a backslash in one service name.
func goldenSnapshot() Snapshot {
	odd := `web"search\v2`
	durs := stats.NewHistogram(DurationBoundsMS)
	for _, v := range []float64{30, 120, 450, 450, 9000, 250000} {
		durs.Add(v)
	}
	wdurs := stats.NewHistogram(DurationBoundsMS)
	wdurs.Add(450)
	return Snapshot{
		Uptime:         90*time.Second + 250*time.Millisecond,
		ActiveFlows:    7,
		Ingested:       123456,
		RingDrops:      3,
		ShardRingDrops: []uint64{1, 2},

		FlowsSeen:      42,
		FlowsEvicted:   map[string]uint64{"lru": 1, "done": 30, "idle": 4},
		FlowsTruncated: 2,
		RecordsFed:     120000,
		RecordsCapDrop: 456,

		FlightEventDrops:    5,
		FlightEvidenceDrops: 1,

		PromotedFlows:             3,
		ParkedFlows:               1,
		TriageFastRecords:         99000,
		TriagePromotions:          map[string]uint64{"retrans": 2, "gap": 6},
		TriageRepromotions:        1,
		TriageDemotions:           2,
		TriageTruncatedPromotions: 1,

		StallCount: map[CauseKey]uint64{
			{odd, core.CauseTimeoutRetrans}:       2,
			{"web-search", core.CausePacketDelay}: 3,
			{"", core.CauseZeroWindow}:            1,
		},
		StallSeconds: map[CauseKey]float64{
			{odd, core.CauseTimeoutRetrans}:       1.25,
			{"web-search", core.CausePacketDelay}: 0.375,
			{"", core.CauseZeroWindow}:            2,
		},
		DurationsMS:    durs,
		RetransCount:   map[core.RetransCause]uint64{core.RetransTail: 1, core.RetransDouble: 1},
		RetransSeconds: map[core.RetransCause]float64{core.RetransTail: 0.5, core.RetransDouble: 0.75},
		Window: WindowSnapshot{
			Span:         time.Minute,
			StallCount:   map[CauseKey]uint64{{odd, core.CauseTimeoutRetrans}: 1},
			StallSeconds: map[CauseKey]float64{{odd, core.CauseTimeoutRetrans}: 0.45},
			DurationsMS:  wdurs,
		},
	}
}

// runtimeSample matches the sample lines of the runtime families,
// whose values differ on every scrape.
var runtimeSample = regexp.MustCompile(`(?m)^(tapod_goroutines|tapod_heap_alloc_bytes|tapod_heap_sys_bytes|tapod_gc_cycles_total|tapod_gc_pause_seconds_total) .*$`)

// TestMetricsGolden pins the exposition bytes for a fixed snapshot.
// Runtime families are matched by name only.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	writeMetrics(&buf, goldenSnapshot())
	got := runtimeSample.ReplaceAll(buf.Bytes(), []byte("$1 <runtime>"))

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
