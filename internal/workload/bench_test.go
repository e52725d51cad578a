package workload

import (
	"runtime"
	"testing"
)

// generated keeps BenchmarkGenerate's result reachable.
var generated []FlowResult

// BenchmarkGenerate measures traffic generation alone, one service at
// a time, on one worker so the figure is per-core CPU per flow.
func BenchmarkGenerate(b *testing.B) {
	const flows = 16
	for i, svc := range Services() {
		b.Run(svc.Name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				generated = Generate(svc, 11+int64(i), GenOptions{Flows: flows, Workers: 1})
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * flows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/flow")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/flow")
		})
	}
}
