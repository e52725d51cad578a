package experiments

import (
	"fmt"
	"strings"
	"time"

	"tcpstall/internal/mitigation"
	"tcpstall/internal/stats"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/workload"
)

// ABResult holds one workload generated under the three recovery
// strategies with identical seeds — the reproduction of the paper's
// round-robin production deployment.
type ABResult struct {
	Workload string
	// ByStrategy maps strategy name → flow results.
	ByStrategy map[string][]workload.FlowResult
}

// Strategies lists the Table-8/9 contenders in paper order.
var Strategies = []mitigation.Kind{mitigation.KindNative, mitigation.KindTLP, mitigation.KindSRTO}

// srtoConfigFor returns the deployed S-RTO parameters: T1 = 5 for web
// search, 10 for cloud storage (Section 5.1), T2 = 5.
func srtoConfigFor(service string) mitigation.SRTOConfig {
	t1 := 10
	if service == "web-search" {
		t1 = 5
	}
	return mitigation.SRTOConfig{T1: t1, T2: 5}
}

// newStrategy builds a fresh per-connection strategy instance.
func newStrategy(kind mitigation.Kind, service string) func() tcpsim.Recovery {
	switch kind {
	case mitigation.KindSRTO:
		cfg := srtoConfigFor(service)
		return func() tcpsim.Recovery { return mitigation.NewSRTO(cfg) }
	case mitigation.KindTLP:
		return func() tcpsim.Recovery { return mitigation.NewTLP(mitigation.TLPConfig{}) }
	default:
		return func() tcpsim.Recovery { return tcpsim.NativeRecovery{} }
	}
}

// RunAB generates the service under each strategy with the same seed.
// Traces are skipped for speed; the latency/retransmission metrics
// carry everything Tables 8 and 9 need.
func RunAB(svc workload.Service, seed int64, flows int) *ABResult {
	res := &ABResult{Workload: svc.Name, ByStrategy: map[string][]workload.FlowResult{}}
	for _, kind := range Strategies {
		res.ByStrategy[string(kind)] = runRecovery(svc, seed, flows, newStrategy(kind, svc.Name))
	}
	return res
}

// runRecovery generates the service with every connection recovering
// through a fresh instance from newRec, skipping traces.
func runRecovery(svc workload.Service, seed int64, flows int, newRec func() tcpsim.Recovery) []workload.FlowResult {
	return workload.Generate(svc, seed, workload.GenOptions{
		Flows:       flows,
		SkipTraces:  true,
		NewRecovery: newRec,
	})
}

// latencySample extracts completed-flow latencies in milliseconds,
// optionally keeping only short flows.
func latencySample(res []workload.FlowResult, shortOnly bool) *stats.Sample {
	s := stats.NewSample(len(res))
	for _, r := range res {
		if !r.Metrics.Done {
			continue
		}
		if shortOnly && r.Metrics.BytesServed >= workload.ShortFlowLimit {
			continue
		}
		s.Add(float64(r.Metrics.FlowLatency().Milliseconds()))
	}
	return s
}

// retransPct is retransmitted data segments over all data segments
// sent, in percent, optionally counting completed flows only.
func retransPct(res []workload.FlowResult, doneOnly bool) float64 {
	var retrans, total float64
	for _, r := range res {
		if doneOnly && !r.Metrics.Done {
			continue
		}
		retrans += float64(r.Metrics.Sender.Retransmissions)
		total += float64(r.Metrics.Sender.DataSegmentsSent)
	}
	return 100 * retrans / maxF(total, 1)
}

// Table8Row is one workload's latency-reduction comparison.
type Table8Row struct {
	Workload string
	// Reduction maps strategy → metric → relative latency change vs
	// native (negative = faster). Metrics: "p50", "p90", "p95",
	// "mean".
	Reduction map[string]map[string]float64
	// Flows counts the evaluated flows per strategy.
	Flows map[string]int
}

var table8Metrics = []string{"p50", "p90", "p95", "mean"}

// reductionRow compares TLP and S-RTO against native on one A/B run.
func reductionRow(label string, ab *ABResult, shortOnly bool) Table8Row {
	base := metricsOf(latencySample(ab.ByStrategy[string(mitigation.KindNative)], shortOnly))
	row := Table8Row{
		Workload:  label,
		Reduction: map[string]map[string]float64{},
		Flows:     map[string]int{},
	}
	for _, kind := range Strategies[1:] {
		s := latencySample(ab.ByStrategy[string(kind)], shortOnly)
		m := metricsOf(s)
		red := map[string]float64{}
		for _, k := range table8Metrics {
			if base[k] > 0 {
				red[k] = (m[k] - base[k]) / base[k]
			}
		}
		row.Reduction[string(kind)] = red
		row.Flows[string(kind)] = s.Len()
	}
	return row
}

func metricsOf(s *stats.Sample) map[string]float64 {
	return map[string]float64{
		"p50":  s.Quantile(0.50),
		"p90":  s.Quantile(0.90),
		"p95":  s.Quantile(0.95),
		"mean": s.Mean(),
	}
}

// Table8 reproduces the latency-reduction comparison: web search
// (all flows are short) and cloud-storage short flows, TLP and S-RTO
// relative to native Linux.
func Table8(seed int64, wsFlows, csFlows int) ([]Table8Row, string) {
	type job struct {
		svc       workload.Service
		flows     int
		shortOnly bool
		label     string
	}
	jobs := []job{
		{workload.WebSearch(), wsFlows, false, "web search"},
		{workload.CloudStorageShort(), csFlows, true, "cloud s. (short flows)"},
	}
	var rows []Table8Row
	t := stats.NewTable("Table 8: Comparison of latency reduction between TLP and S-RTO (vs native Linux).",
		"quantile", "web search TLP", "S-RTO", "cloud s. TLP", "S-RTO")
	cells := map[string]map[string]map[string]float64{} // label → strategy → metric
	for _, j := range jobs {
		row := reductionRow(j.label, RunAB(j.svc, seed, j.flows), j.shortOnly)
		rows = append(rows, row)
		cells[j.label] = row.Reduction
	}
	for _, metric := range table8Metrics {
		t.AddRow(metric,
			pct(cells["web search"]["tlp"][metric]),
			pct(cells["web search"]["srto"][metric]),
			pct(cells["cloud s. (short flows)"]["tlp"][metric]),
			pct(cells["cloud s. (short flows)"]["srto"][metric]),
		)
	}
	return rows, t.String()
}

func pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }

// Table9Row is one service's retransmission packet ratio per
// strategy.
type Table9Row struct {
	Service string
	// RatioPct maps strategy → retransmitted packets / all data
	// packets, in percent.
	RatioPct map[string]float64
}

// Table9 reproduces the retransmission packet ratio comparison.
func Table9(seed int64, wsFlows, csFlows int) ([]Table9Row, string) {
	jobs := []struct {
		svc   workload.Service
		flows int
	}{
		{workload.WebSearch(), wsFlows},
		{workload.CloudStorage(), csFlows},
	}
	var rows []Table9Row
	t := stats.NewTable("Table 9: Retransmission packet ratio.",
		"service", "Linux", "TLP", "S-RTO")
	for _, j := range jobs {
		ab := RunAB(j.svc, seed+1, j.flows)
		row := Table9Row{Service: j.svc.Name, RatioPct: map[string]float64{}}
		cells := []string{ShortName(j.svc.Name)}
		for _, kind := range Strategies {
			ratio := retransPct(ab.ByStrategy[string(kind)], false)
			row.RatioPct[string(kind)] = ratio
			cells = append(cells, fmt.Sprintf("%.1f%%", ratio))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	return rows, t.String()
}

// FloorRegimeComparison isolates the network regime the paper's
// deployment sat in: short, floor-dominated RTOs. For a 40ms-RTT path
// the Linux RTO is pinned near SRTT + 200ms ≈ 6×RTT, so converting a
// timeout into a 2·RTT probe saves several RTTs per loss event while
// a spurious probe costs about one. Here S-RTO's advantage over TLP
// is structural (it also fires in Disorder/Recovery, catching
// f-double stalls), reproducing the shape of the paper's Table 8.
func FloorRegimeComparison(seed int64, flows int) ([]Table8Row, string) {
	svc := workload.CloudStorageShort()
	// A stable metro path: low base RTT, no wireless jitter, no
	// delay spikes — the Linux RTO is pinned at SRTT + 200ms, several
	// RTTs above the path RTT. Small control responses keep
	// packets_out under the deployed T1 so the probe can arm, and
	// bursty loss supplies the tail/double events S-RTO converts.
	svc.RTTMean = 40 * time.Millisecond
	svc.RTTSigma = 0.3
	svc.WirelessProb = 0
	svc.SpikeEvery = 0
	svc.JitterFrac = 0.1
	svc.RespSizeMean = 8_000
	svc.RespSizeSigma = 0.6
	svc.BurstEvery = 2500 * time.Millisecond
	svc.BurstDur = 400 * time.Millisecond
	svc.BurstLossP = 0.6
	svc.LossGB = 0.018

	row := reductionRow("floor-regime short flows", RunAB(svc, seed, flows), true)
	t := stats.NewTable("Floor-regime A/B (40ms RTT, RTO ≈ 6×RTT): latency change vs native.",
		"quantile", "TLP", "S-RTO")
	for _, metric := range table8Metrics {
		t.AddRow(metric,
			pct(row.Reduction[string(mitigation.KindTLP)][metric]),
			pct(row.Reduction[string(mitigation.KindSRTO)][metric]))
	}
	return []Table8Row{row}, t.String()
}

// LargeFlowThroughput reproduces the Section-5.2 side observation:
// neither mechanism moves large-flow throughput much. It returns the
// mean throughput change vs native for flows ≥ 200KB.
func LargeFlowThroughput(seed int64, flows int) (map[string]float64, string) {
	ab := RunAB(workload.CloudStorage(), seed+2, flows)
	tput := func(res []workload.FlowResult) float64 {
		var sum float64
		var n int
		for _, r := range res {
			if !r.Metrics.Done || r.Metrics.BytesServed < workload.ShortFlowLimit {
				continue
			}
			if lat := r.Metrics.FlowLatency(); lat > 0 {
				sum += float64(r.Metrics.BytesServed) / lat.Seconds()
				n++
			}
		}
		return sum / maxF(float64(n), 1)
	}
	base := tput(ab.ByStrategy[string(mitigation.KindNative)])
	out := map[string]float64{}
	txt := "Large-flow (≥200KB) mean throughput change vs native:"
	for _, kind := range Strategies[1:] {
		chg := (tput(ab.ByStrategy[string(kind)]) - base) / base
		out[string(kind)] = chg
		txt += fmt.Sprintf(" %s %+.1f%%", kind, 100*chg)
	}
	return out, txt + "\n"
}

// SweepRow is one S-RTO setting's outcome on cloud-storage short
// flows.
type SweepRow struct {
	// Param is the swept parameter: "T1", "T2" or "multiple".
	Param string
	// Value is the setting as rendered ("∞" disables a guard).
	Value                     string
	MeanMS, P90MS, RetransPct float64
}

// SRTOSweep is the S-RTO ablation: the T1 activation threshold, the
// T2 cwnd-halving guard and the probe-timer RTT multiple, each swept
// with the others at their deployed values, on cloud-storage short
// flows. It renders one table per parameter.
func SRTOSweep(seed int64, flows int) ([]SweepRow, string) {
	type setting struct {
		label string
		cfg   mitigation.SRTOConfig
	}
	ints := func(cfg func(int) mitigation.SRTOConfig, vals ...int) []setting {
		var out []setting
		for _, v := range vals {
			label := fmt.Sprintf("%d", v)
			if v >= 1<<20 {
				label = "∞"
			}
			out = append(out, setting{label, cfg(v)})
		}
		return out
	}
	var mults []setting
	for _, m := range []float64{1.5, 2, 3, 4} {
		mults = append(mults, setting{fmt.Sprintf("%.1f·RTT", m), mitigation.SRTOConfig{T1: 10, T2: 5, RTTMultiple: m}})
	}
	sweeps := []struct {
		param, title string
		settings     []setting
	}{
		{"T1", "T1", ints(func(v int) mitigation.SRTOConfig { return mitigation.SRTOConfig{T1: v, T2: 5} }, 2, 5, 10, 20, 1<<20)},
		{"T2", "T2", ints(func(v int) mitigation.SRTOConfig { return mitigation.SRTOConfig{T1: 10, T2: v} }, 1, 3, 5, 10, 1<<20)},
		{"multiple", "probe-timer multiple", mults},
	}
	var rows []SweepRow
	var tables []string
	for _, sw := range sweeps {
		t := stats.NewTable(fmt.Sprintf("S-RTO %s sweep (cloud-storage short flows).", sw.title),
			sw.param, "mean latency", "p90", "retrans ratio")
		for _, st := range sw.settings {
			res := runRecovery(workload.CloudStorageShort(), seed, flows,
				func() tcpsim.Recovery { return mitigation.NewSRTO(st.cfg) })
			lat := latencySample(res, false)
			row := SweepRow{Param: sw.param, Value: st.label,
				MeanMS: lat.Mean(), P90MS: lat.Quantile(0.9), RetransPct: retransPct(res, true)}
			rows = append(rows, row)
			t.AddRow(row.Value, fmt.Sprintf("%.0fms", row.MeanMS), fmt.Sprintf("%.0fms", row.P90MS),
				fmt.Sprintf("%.2f%%", row.RetransPct))
		}
		tables = append(tables, t.String())
	}
	return rows, strings.Join(tables, "\n")
}

// StrategyRow is one recovery strategy's outcome on cloud-storage
// short flows.
type StrategyRow struct {
	Strategy             string
	P50MS, P90MS, MeanMS float64
	RTOFirings           int
	RetransPct           float64
}

// StrategyComparison runs all five recovery strategies — the paper's
// three plus the related-work comparators Early Retransmit and
// TCP-NCL — on identical cloud-storage short-flow workloads.
func StrategyComparison(seed int64, flows int) ([]StrategyRow, string) {
	strategies := []func() tcpsim.Recovery{
		func() tcpsim.Recovery { return tcpsim.NativeRecovery{} },
		func() tcpsim.Recovery { return mitigation.EarlyRetransmit{} },
		func() tcpsim.Recovery { return mitigation.NewTLP(mitigation.TLPConfig{}) },
		func() tcpsim.Recovery { return mitigation.NewNCL(mitigation.NCLConfig{}) },
		func() tcpsim.Recovery { return mitigation.NewSRTO(mitigation.SRTOConfig{T1: 10, T2: 5}) },
	}
	var rows []StrategyRow
	t := stats.NewTable("All strategies on cloud-storage short flows (identical workload).",
		"strategy", "p50", "p90", "mean", "RTO firings", "retrans ratio")
	for _, mk := range strategies {
		res := runRecovery(workload.CloudStorageShort(), seed, flows, mk)
		lat := latencySample(res, false)
		row := StrategyRow{Strategy: mk().Name(), P50MS: lat.Quantile(0.5), P90MS: lat.Quantile(0.9),
			MeanMS: lat.Mean(), RetransPct: retransPct(res, true)}
		for _, r := range res {
			if r.Metrics.Done {
				row.RTOFirings += r.Metrics.Sender.RTOFirings
			}
		}
		rows = append(rows, row)
		t.AddRow(row.Strategy,
			fmt.Sprintf("%.0fms", row.P50MS),
			fmt.Sprintf("%.0fms", row.P90MS),
			fmt.Sprintf("%.0fms", row.MeanMS),
			fmt.Sprintf("%d", row.RTOFirings),
			fmt.Sprintf("%.2f%%", row.RetransPct))
	}
	return rows, t.String()
}
