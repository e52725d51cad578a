package main

import (
	"math"
	"sort"

	"tcpstall/internal/stats"
)

// metricDef names one reported number. BENCHMARK.json carries the
// same rows; TestMetricNamesMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: tolerated regression as a share of the median
}

// endToEnd is what a user of the chain sees, on every workload: the
// contract makes each workload report each row and holds each row's
// run-to-run spread under its bound. The latencies ISSUE 11 listed
// here (verdict_*, push_*, cpu_us_per_push) are rows of perLayer
// instead: README.md shows why they cannot meet a bound on the
// closed-loop workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"records_per_sec", "1/s", true, 0.25},
	{"cpu_ns_per_record", "ns", false, 0.25},
	{"live_heap_mb", "MB", false, 0.15},
}

// perLayer is the traced run's table. Its first latencyRows rows are
// the whole chain's latencies, read off the run's untraced reps; the
// rest is one row per layer boundary, named <module>.<metric>.
const latencyRows = 7

var perLayer = []metricDef{
	{name: "verdict_p50_ms", unit: "ms"},
	{name: "verdict_p99_ms", unit: "ms"},
	{name: "verdict_samples", unit: "count"},
	{name: "push_p50_ms", unit: "ms"},
	{name: "push_p99_ms", unit: "ms"},
	{name: "push_samples", unit: "count"},
	{name: "cpu_us_per_push", unit: "us"},
	{name: "pcap.read_ns_per_record", unit: "ns"},
	{name: "pcap.read_calls_per_record", unit: "count"},
	{name: "pcap.bytes_per_record", unit: "B"},
	{name: "packet.decode_ns_per_record", unit: "ns"},
	{name: "packet.decode_allocs_per_record", unit: "count"},
	{name: "trace.import_ns_per_record", unit: "ns"},
	{name: "trace.import_allocs_per_record", unit: "count"},
	{name: "trace.import_bytes_per_record", unit: "B"},
	{name: "triage.observe_ns_per_record", unit: "ns"},
	{name: "triage.promoted_flow_share", unit: "ratio"},
	{name: "triage.fast_record_share", unit: "ratio", higher: true},
	{name: "triage.truncated_promotions", unit: "count"},
	{name: "core.feed_ns_per_record", unit: "ns"},
	{name: "core.feed_allocs_per_record", unit: "count"},
	{name: "core.stalls", unit: "count"},
	{name: "flight.overhead_ratio", unit: "ratio"},
	{name: "live.intake_ns_per_record", unit: "ns"},
	{name: "live.intake_batch_mean", unit: "count", higher: true},
	{name: "live.dwell_p50_ms", unit: "ms"},
	{name: "live.dwell_p99_ms", unit: "ms"},
	{name: "live.close_ms", unit: "ms"},
	{name: "live.snapshot_us", unit: "us"},
	{name: "live.heap_kb_per_flow", unit: "KB"},
	{name: "live.records_fed", unit: "count"},
	{name: "live.ring_drops", unit: "count"},
	{name: "live.record_cap_drops", unit: "count"},
	{name: "live.flows_seen", unit: "count"},
	{name: "live.flows_evicted_lru", unit: "count"},
	{name: "fleet.member_snapshot_us", unit: "us"},
	{name: "fleet.push_bytes", unit: "B"},
	{name: "fleet.head_merge_p50_ms", unit: "ms"},
	{name: "fleet.head_merge_p99_ms", unit: "ms"},
	{name: "fleet.head_totals_us", unit: "us"},
	{name: "fleet.member_close_ms", unit: "ms"},
	{name: "fleet.pushes_rejected", unit: "count"},
	{name: "pipeline.run_records_per_sec", unit: "1/s", higher: true},
	{name: "chain.allocs_per_record", unit: "count"},
	{name: "chain.alloc_bytes_per_record", unit: "B"},
	{name: "chain.gc_cpu_share", unit: "ratio"},
	{name: "chain.source_cpu_ns_per_record", unit: "ns"},
	{name: "chain.offsource_cpu_ns_per_record", unit: "ns"},
	{name: "chain.gen_late_p99_ms", unit: "ms"},
	{name: "chain.achieved_over_offered", unit: "ratio", higher: true},
	{name: "chain.decode_ceiling_records_per_sec", unit: "1/s", higher: true},
	{name: "chain.share_of_decode_ceiling", unit: "ratio", higher: true},
	{name: "chain.trace_overhead_ratio", unit: "ratio"},
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(vals []float64, q float64) float64 {
	s := stats.NewSample(len(vals))
	for _, v := range vals {
		s.Add(v)
	}
	return s.Quantile(q)
}

// quartiles returns the three quartiles of vals as Python's
// statistics.quantiles(vals, n=4) computes them (its default
// "exclusive" method), so that a spread printed here is the spread
// the driver will compute. A single value is all three quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the benchmark contract bounds.
func iqrShare(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// steady reduces a run's reps to the one value reported: the mean of
// the better half of them (the lower half for a cost, the upper half
// for a rate). On a shared two-core box the noise is one-sided — a
// neighbour, or the host scheduling both virtual cores onto one
// physical core, slows reps down for seconds at a time and nothing
// ever speeds one up — so the disturbed reps are the worse ones, and
// how many there are differs from run to run. README.md has the rep
// times this was decided on, and how the median fared on them.
func (d metricDef) steady(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	if d.higher {
		v = v[len(v)/2:]
	} else {
		v = v[:(len(v)+1)/2]
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// worseBy reports how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func (d metricDef) worseBy(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}
