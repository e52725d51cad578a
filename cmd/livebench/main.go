// Command livebench measures the live monitoring pipeline and writes
// the results as JSON (BENCH_live.json in CI). Four numbers matter:
//
//   - monitor throughput: records/sec through the sharded flow table
//     via the blocking ingest path, worker goroutines running;
//   - ingest latency: p50/p99 of a one-record IngestBatchWait under load;
//   - batch vs incremental: records/sec through core.Analyze versus
//     NewIncremental Feed/Flush over the same flows — the streaming
//     analyzer's overhead relative to the batch path it reimplements;
//   - flight overhead: the incremental analyzer with a flight
//     recorder attached versus without — the price of evidence;
//   - triage speedup: two-phase triage versus always-on analysis on a
//     healthy-heavy traffic mix (the paper's regime: stalls are rare
//     events buried in massive healthy traffic).
//
// Derived ratios that cannot be computed (a zero or unmeasured
// denominator, a non-finite quotient) are reported as -1 — a sentinel
// the gates skip — rather than JSON-invalid NaN/Inf or a silent 0
// that would trip a floor.
//
// Gates (each exits non-zero when violated):
//
//	-min-rate N          monitor throughput floor (CI smoke)
//	-flight-min-rate N   recorder-enabled throughput floor
//	-triage-min-ratio F  triage speedup floor on the healthy-heavy mix
//	                     (CI uses 3)
//	-max-allocs-per-record F  fail when the always-on monitor pipeline
//	                     allocates more than F heap objects per record
//	                     (CI uses 2; the hot-path allocation budget)
//	-baseline FILE       compare against a previous BENCH_live.json:
//	-max-regress F       fail when incremental (recorder disabled)
//	                     throughput regressed more than F (e.g. 0.02)
//	                     versus the baseline — the recorder's nil fast
//	                     path must stay near-zero cost.
//
// Usage:
//
//	livebench [-quick] [-out BENCH_live.json] [-min-rate 100000]
//	          [-flight-min-rate 100000] [-baseline BENCH_live.json -max-regress 0.02]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

type result struct {
	Quick      bool `json:"quick"`
	GoMaxProcs int  `json:"gomaxprocs"`
	Flows      int  `json:"flows"`
	Records    int  `json:"records"`

	MonitorRecordsPerSec float64 `json:"monitor_records_per_sec"`
	MonitorElapsedMS     float64 `json:"monitor_elapsed_ms"`
	IngestP50Us          float64 `json:"ingest_p50_us"`
	IngestP99Us          float64 `json:"ingest_p99_us"`

	// MonitorAllocsPerRecord is heap allocations per record across the
	// always-on monitor's whole pipeline (batch intake, shard
	// processing, eviction), measured with ReadMemStats deltas over the
	// final rep; TriageAllocsPerRecord is the same for the two-phase
	// mix. -1 when unmeasurable.
	MonitorAllocsPerRecord float64 `json:"monitor_allocs_per_record"`
	TriageAllocsPerRecord  float64 `json:"triage_allocs_per_record"`

	BatchRecordsPerSec       float64 `json:"batch_records_per_sec"`
	IncrementalRecordsPerSec float64 `json:"incremental_records_per_sec"`
	IncrementalOverhead      float64 `json:"incremental_overhead_ratio"`

	// FlightRecordsPerSec drives the same incremental loop with a
	// flight recorder attached; FlightOverhead is disabled/enabled —
	// how much slower evidence capture makes the analyzer.
	FlightRecordsPerSec float64 `json:"flight_records_per_sec"`
	FlightOverhead      float64 `json:"flight_overhead_ratio"`

	// Healthy-heavy triage scenario: the same monitor fed a traffic
	// mix that is overwhelmingly pathology-free (workload.Healthy)
	// with a thin slice of standard sick flows — the regime two-phase
	// triage exists for. TriageRecordsPerSec runs with triage on,
	// MixMonitorRecordsPerSec always-on over the identical events;
	// TriageSpeedup is their ratio (CI gates it ≥ 3).
	MixFlows                int     `json:"mix_flows"`
	MixRecords              int     `json:"mix_records"`
	TriageRecordsPerSec     float64 `json:"triage_records_per_sec"`
	MixMonitorRecordsPerSec float64 `json:"mix_monitor_records_per_sec"`
	// TriageOverMonitor is the gated ratio: triage throughput on the
	// healthy-heavy mix over the always-on monitor_records_per_sec
	// baseline above (CI requires ≥ 3). TriageSpeedup isolates the
	// two-phase split itself: always-on over the identical mix through
	// the identical batch-ingest path.
	TriageOverMonitor         float64 `json:"triage_over_monitor_ratio"`
	TriageSpeedup             float64 `json:"triage_speedup_ratio"`
	TriagePromotionRate       float64 `json:"triage_promotion_rate"`
	TriageTruncatedPromotions uint64  `json:"triage_truncated_promotions"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller dataset and fewer repetitions (CI smoke)")
	out := flag.String("out", "", "write the JSON result to this file (default stdout only)")
	minRate := flag.Float64("min-rate", 0, "exit non-zero when monitor records/sec is below this")
	flightMinRate := flag.Float64("flight-min-rate", 0, "exit non-zero when recorder-enabled records/sec is below this")
	triageMinRatio := flag.Float64("triage-min-ratio", 0, "exit non-zero when healthy-heavy triage records/sec is below this multiple of the always-on monitor baseline")
	maxAllocs := flag.Float64("max-allocs-per-record", -1, "exit non-zero when the always-on monitor allocates more than this many heap objects per record (<0 disables)")
	baseline := flag.String("baseline", "", "compare against this previous BENCH_live.json")
	maxRegress := flag.Float64("max-regress", 0.02, "with -baseline: max allowed fractional regression of recorder-disabled incremental throughput")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	logger := newLogger(*logFormat)

	perSvc := 60
	reps := 5
	if *quick {
		perSvc = 25
		reps = 3
	}

	logger.Info("generating workload", "flows_per_service", perSvc)
	var flows []*trace.Flow
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 11, workload.GenOptions{Flows: perSvc}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	var events []trace.RecordEvent
	for _, f := range flows {
		for i := range f.Records {
			events = append(events, trace.RecordEvent{
				FlowID:   f.ID,
				Service:  f.Service,
				MSS:      f.MSS,
				InitRwnd: f.InitRwnd,
				Rec:      f.Records[i],
			})
		}
	}
	res := result{Quick: *quick, GoMaxProcs: runtime.GOMAXPROCS(0), Flows: len(flows), Records: len(events)}
	logger.Info("workload ready", "flows", len(flows), "records", len(events))

	res.MonitorRecordsPerSec, res.MonitorElapsedMS, res.IngestP50Us, res.IngestP99Us, res.MonitorAllocsPerRecord = benchMonitor(events, reps)
	res.BatchRecordsPerSec = benchBatch(flows, reps)
	res.IncrementalRecordsPerSec = benchIncremental(flows, reps, false)
	res.FlightRecordsPerSec = benchIncremental(flows, reps, true)
	res.IncrementalOverhead = ratio(res.BatchRecordsPerSec, res.IncrementalRecordsPerSec)
	res.FlightOverhead = ratio(res.IncrementalRecordsPerSec, res.FlightRecordsPerSec)

	mixEvents, mixFlows := healthyHeavyMix(perSvc, *quick)
	res.MixFlows, res.MixRecords = mixFlows, len(mixEvents)
	logger.Info("healthy-heavy mix ready", "flows", mixFlows, "records", len(mixEvents))
	var snap live.Snapshot
	res.TriageRecordsPerSec, res.TriageAllocsPerRecord, snap = benchMix(mixEvents, reps, true)
	res.MixMonitorRecordsPerSec, _, _ = benchMix(mixEvents, reps, false)
	res.TriageSpeedup = ratio(res.TriageRecordsPerSec, res.MixMonitorRecordsPerSec)
	res.TriageOverMonitor = ratio(res.TriageRecordsPerSec, res.MonitorRecordsPerSec)
	var promotions uint64
	for _, n := range snap.TriagePromotions {
		promotions += n
	}
	// First-time promotions can't be negative, but compute in floats so
	// a counter glitch surfaces as the sentinel, not a 2^64 rate.
	res.TriagePromotionRate = ratio(float64(promotions)-float64(snap.TriageRepromotions), float64(snap.FlowsSeen))
	res.TriageTruncatedPromotions = snap.TriageTruncatedPromotions

	b, _ := json.MarshalIndent(&res, "", "  ")
	fmt.Println(string(b))
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			logger.Error("write failed", "path", *out, "err", err)
			os.Exit(1)
		}
	}

	fail := false
	if *minRate > 0 && res.MonitorRecordsPerSec < *minRate {
		logger.Error("FAIL monitor throughput below floor",
			"records_per_sec", res.MonitorRecordsPerSec, "floor", *minRate)
		fail = true
	}
	if *flightMinRate > 0 && res.FlightRecordsPerSec < *flightMinRate {
		logger.Error("FAIL recorder-enabled throughput below floor",
			"records_per_sec", res.FlightRecordsPerSec, "floor", *flightMinRate)
		fail = true
	}
	if *triageMinRatio > 0 && res.TriageOverMonitor >= 0 && res.TriageOverMonitor < *triageMinRatio {
		logger.Error("FAIL triage throughput below floor on the healthy-heavy mix",
			"triage_records_per_sec", res.TriageRecordsPerSec,
			"monitor_records_per_sec", res.MonitorRecordsPerSec,
			"ratio", res.TriageOverMonitor, "floor", *triageMinRatio)
		fail = true
	}
	if *maxAllocs >= 0 && res.MonitorAllocsPerRecord >= 0 && res.MonitorAllocsPerRecord > *maxAllocs {
		logger.Error("FAIL monitor pipeline allocates above the per-record budget",
			"allocs_per_record", res.MonitorAllocsPerRecord, "budget", *maxAllocs)
		fail = true
	}
	if *baseline != "" && !checkBaseline(logger, *baseline, &res, *maxRegress) {
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// newLogger configures slog; "json" for log shippers, text otherwise.
func newLogger(format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l
}

// checkBaseline enforces the recorder fast-path gate: with the
// recorder disabled, the incremental analyzer must stay within
// maxRegress of the baseline run's throughput.
func checkBaseline(logger *slog.Logger, path string, res *result, maxRegress float64) bool {
	b, err := os.ReadFile(path)
	if err != nil {
		logger.Error("baseline unreadable", "path", path, "err", err)
		return false
	}
	var base result
	if err := json.Unmarshal(b, &base); err != nil {
		logger.Error("baseline unparsable", "path", path, "err", err)
		return false
	}
	if base.IncrementalRecordsPerSec <= 0 {
		logger.Warn("baseline has no incremental rate; skipping regression gate", "path", path)
		return true
	}
	floor := base.IncrementalRecordsPerSec * (1 - maxRegress)
	if res.IncrementalRecordsPerSec < floor {
		logger.Error("FAIL recorder-disabled incremental throughput regressed past the gate",
			"records_per_sec", res.IncrementalRecordsPerSec,
			"baseline", base.IncrementalRecordsPerSec,
			"max_regress", maxRegress)
		return false
	}
	logger.Info("baseline gate passed",
		"records_per_sec", res.IncrementalRecordsPerSec,
		"baseline", base.IncrementalRecordsPerSec,
		"max_regress", maxRegress)
	return true
}

// ratio returns num/den, or the -1 sentinel when the denominator is
// not positive or the quotient is not finite. The gates treat -1 as
// "not measurable" and skip; serializing NaN/Inf would corrupt the
// JSON, and a silent 0 would trip every floor.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return -1
	}
	q := num / den
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return -1
	}
	return q
}

// benchChunk is the batch-intake granularity: the chunk size a replay
// source hands IngestBatchWait.
const benchChunk = 512

// benchMonitor pushes the event set through a running Monitor reps
// times over the batch intake path — the line-rate path replay and
// generation sources use — and reports the best run's throughput plus
// heap allocations per record across the final rep's whole pipeline
// (intake, shard processing, eviction; ReadMemStats deltas, so shard
// goroutine allocations count too). Per-call latency quantiles come
// from one extra pass of one-record IngestBatchWait calls, sampled
// every 64th call so timer overhead doesn't dominate the measured loop.
func benchMonitor(events []trace.RecordEvent, reps int) (rate, elapsedMS, p50us, p99us, allocsPerRec float64) {
	best := time.Duration(1 << 62)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		m := live.New(live.Config{})
		m.Start()
		last := r == reps-1
		if last {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		for i := 0; i < len(events); i += benchChunk {
			end := i + benchChunk
			if end > len(events) {
				end = len(events)
			}
			m.IngestBatchWait(events[i:end])
		}
		feed := time.Since(start)
		m.Close()
		if last {
			runtime.ReadMemStats(&ms1)
		}
		if feed < best {
			best = feed
		}
	}
	allocsPerRec = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(events)))

	lat := stats.NewSample(len(events)/64 + 1)
	m := live.New(live.Config{})
	m.Start()
	for i := range events {
		if i%64 == 0 {
			t0 := time.Now()
			m.IngestBatchWait(events[i : i+1])
			lat.Add(float64(time.Since(t0)) / float64(time.Microsecond))
		} else {
			m.IngestBatchWait(events[i : i+1])
		}
	}
	m.Close()

	rate = float64(len(events)) / best.Seconds()
	return rate, float64(best) / float64(time.Millisecond), lat.Quantile(0.50), lat.Quantile(0.99), allocsPerRec
}

// healthyHeavyMix builds the triage benchmark's traffic: for every
// service, a large population of pathology-free flows
// (workload.Healthy) plus ~3% standard sick flows, their records
// interleaved round-robin so every shard sees the mix.
func healthyHeavyMix(perSvc int, quick bool) ([]trace.RecordEvent, int) {
	healthyPer := perSvc * 4
	sickPer := healthyPer / 32
	if sickPer < 1 {
		sickPer = 1
	}
	var flows []*trace.Flow
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(workload.Healthy(svc), 13, workload.GenOptions{Flows: healthyPer}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
		for _, fr := range workload.Generate(svc, 17, workload.GenOptions{Flows: sickPer}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	var evs []trace.RecordEvent
	for round := 0; ; round++ {
		fed := false
		for _, f := range flows {
			if round < len(f.Records) {
				evs = append(evs, trace.RecordEvent{
					FlowID:   f.ID,
					Service:  f.Service,
					MSS:      f.MSS,
					InitRwnd: f.InitRwnd,
					Rec:      f.Records[round],
				})
				fed = true
			}
		}
		if !fed {
			break
		}
	}
	return evs, len(flows)
}

// benchMix pushes the healthy-heavy events through a Monitor reps
// times — triage two-phase or always-on — reporting the best run's
// throughput, the final rep's allocations per record, and the final
// run's counter snapshot.
func benchMix(events []trace.RecordEvent, reps int, triaged bool) (rate, allocsPerRec float64, snap live.Snapshot) {
	best := time.Duration(1 << 62)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		cfg := live.Config{}
		if triaged {
			cfg.Triage = &triage.Config{}
		}
		m := live.New(cfg)
		m.Start()
		last := r == reps-1
		if last {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		for i := 0; i < len(events); i += benchChunk {
			end := i + benchChunk
			if end > len(events) {
				end = len(events)
			}
			m.IngestBatchWait(events[i:end])
		}
		feed := time.Since(start)
		m.Close()
		if last {
			runtime.ReadMemStats(&ms1)
		}
		if feed < best {
			best = feed
		}
		snap = m.Snapshot()
	}
	allocsPerRec = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(events)))
	return float64(len(events)) / best.Seconds(), allocsPerRec, snap
}

func benchBatch(flows []*trace.Flow, reps int) float64 {
	var records int
	for _, f := range flows {
		records += len(f.Records)
	}
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, f := range flows {
			core.Analyze(f, core.Config{})
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(records*1) / best.Seconds()
}

// benchIncremental measures the streaming analyzer; withFlight
// attaches a default-config flight recorder to every flow, which is
// exactly what tapod -flight does per admitted flow.
func benchIncremental(flows []*trace.Flow, reps int, withFlight bool) float64 {
	var records int
	for _, f := range flows {
		records += len(f.Records)
	}
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, f := range flows {
			inc := core.NewIncremental(core.Config{})
			inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
			if withFlight {
				inc.SetRecorder(flight.NewRecorder(flight.Config{}))
			}
			for i := range f.Records {
				inc.Feed(&f.Records[i])
			}
			inc.Flush()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(records) / best.Seconds()
}
