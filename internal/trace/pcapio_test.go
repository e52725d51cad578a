package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// digestFlows is a small fixed capture: a few flows of every service,
// and the last flow listed twice. Generated flows seldom share a
// timestamp; the repeat ties every one of its records with a record of
// another flow, so the export's merge order is pinned on ties too.
func digestFlows(tb testing.TB, perService int) []*trace.Flow {
	tb.Helper()
	var flows []*trace.Flow
	for i, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 40+int64(i), workload.GenOptions{Flows: perService}) {
			if fr.Flow != nil && len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	if len(flows) == 0 {
		tb.Fatal("no flows generated")
	}
	return append(flows, flows[len(flows)-1])
}

// TestExportPcapDigest pins ExportPcap's bytes: the merge order, every
// header field, both checksums and the snap-length cut.
func TestExportPcapDigest(t *testing.T) {
	flows := digestFlows(t, 3)
	for _, tc := range []struct {
		name    string
		snaplen uint32
		want    string
	}{
		{"snaplen96", 96, "b250805fa9b07d2a2f48405e858543bef311349ac140b377420191f169c7c37a"},
		{"default", 0, "c47336622fd216a87b29de4f2265257ad9be86477ae6b856cf5ab3ea42320c5e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			if err := trace.ExportPcap(h, flows, trace.ExportConfig{Snaplen: tc.snaplen}); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkExportPcap measures the writer alone, into io.Discard, per
// exported record.
func BenchmarkExportPcap(b *testing.B) {
	flows := digestFlows(b, 4)
	var records int
	for _, f := range flows {
		records += len(f.Records)
	}
	for _, bc := range []struct {
		name    string
		snaplen uint32
	}{
		{"snaplen96", 96},
		{"full", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				if err := trace.ExportPcap(io.Discard, flows, trace.ExportConfig{Snaplen: bc.snaplen}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * records)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
		})
	}
}
