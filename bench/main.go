// Command bench is the repo's one benchmark: it drives the whole chain
// — capture file bytes → pcap/packet/trace → live (→ triage → core) →
// fleet member → head — through public functions only, over four
// workloads, and reports end-to-end metrics from untraced reps and a
// per-layer table from one traced rep. README.md in this directory is
// the manual; BENCHMARK.json at the repo root is the contract.
//
//	go run ./bench                       every workload, both tables, trace files
//	go run ./bench -repeat 2             the end-to-end set twice, compared against the bounds
//	go run ./bench -workload replay_sick -trace 0 -seed 3 -seconds 14
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	notes     []string             // why reps failed
	values    map[string]float64   // the reported metrics
	reps      map[string][]float64 // per untraced rep (or set-up): the readings each reported value is taken over
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func (res *result) correct() bool { return res.failed == 0 && len(res.notes) == 0 }

func main() {
	workloadName := flag.String("workload", "", "run this workload only and end with the driver's one-line JSON result")
	seed := flag.Int64("seed", 11, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long the measured reps of a run go on for (at least the size's minimum rep count)")
	traceMode := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced rep")
	smoke := flag.Bool("smoke", false, "tiny inputs and two reps: a functional check, not a measurement")
	repeat := flag.Int("repeat", 1, "run the end-to-end set this many times and compare the sets against the bounds")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for trace files and temporary captures")
	flag.Parse()

	if err := pinCores(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	sz := fullSize
	if *smoke {
		sz = smokeSize
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var ok bool
	switch {
	case *workloadName != "":
		ok = runOne(*workloadName, *seed, sz, budget, *traceMode == 1, *outDir)
	case *repeat > 1:
		ok = runRepeat(*repeat, *seed, sz, budget, *outDir)
	default:
		ok = runAll(*seed, sz, budget, *outDir)
	}
	if !ok {
		os.Exit(1)
	}
}

// pinCores fixes the benchmark's share of the machine at two cores,
// which the source, the shards and the pusher then share.
func pinCores() error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs, found %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(2)
	return nil
}

// runOne is the driver's entry: one workload, one mode, and the result
// as one JSON object on the last line of standard output.
func runOne(name string, seed int64, sz sizes, budget time.Duration, traced bool, outDir string) bool {
	w, found := specByName(name)
	if !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return false
	}
	res, err := run(w, seed, sz, budget, traced, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	printResult(res)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metric{}}
	for _, d := range defsOf(traced) {
		line.Metrics[d.name] = metric{res.values[d.name], d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(out))
	return res.correct()
}

// runAll is what a person runs: every workload's end-to-end metrics,
// then its traced rep and per-layer table.
func runAll(seed int64, sz sizes, budget time.Duration, outDir string) bool {
	ok := true
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(w, seed, sz, budget, traced, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return false
			}
			printResult(res)
			ok = ok && res.correct()
		}
	}
	return ok
}

// runRepeat runs the end-to-end set n times over the same seed and
// checks that each later set agrees with the first within every
// metric's bound.
func runRepeat(n int, seed int64, sz sizes, budget time.Duration, outDir string) bool {
	sets := make([]map[string]*result, n)
	ok := true
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range specs {
			res, err := run(w, seed, sz, budget, false, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return false
			}
			fmt.Printf("set %d: %s: %d attempted, %d failed\n", i+1, w.name, res.attempted, res.failed)
			ok = ok && res.correct()
			sets[i][w.name] = res
		}
	}
	fmt.Printf("\n%-18s %-15s %6s", "metric", "workload", "bound")
	for i := range sets {
		fmt.Printf(" %14s %7s", fmt.Sprintf("set %d", i+1), "iqr")
	}
	fmt.Println("  verdict")
	for _, d := range endToEnd {
		for _, w := range specs {
			first := sets[0][w.name]
			fmt.Printf("%-18s %-15s %6.2f", d.name, w.name, d.bound)
			verdict := "pass"
			for _, set := range sets {
				res := set[w.name]
				fmt.Printf(" %14.4f %6.1f%%", res.values[d.name], 100*iqrShare(res.reps[d.name]))
				if math.Abs(d.worseBy(first.values[d.name], res.values[d.name])) > d.bound {
					verdict = "FAIL"
					ok = false
				}
			}
			fmt.Println("  " + verdict)
		}
	}
	return ok
}

func defsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// run sets the workload up, warms it, and measures.
func run(w spec, seed int64, sz sizes, budget time.Duration, traced bool, outDir string) (*result, error) {
	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{
		workload: w.name, traced: traced,
		values: map[string]float64{}, reps: map[string][]float64{},
	}
	// Set-up is timed like everything else, so work moved into it
	// shows. The end-to-end run sets up at least three times, and goes
	// on while set-ups are cheap, to steady the reading.
	var in *input
	setUps := time.Now()
	for i := 0; i == 0 || (!traced && (i < 3 || time.Since(setUps) < sz.setUpBudget)); i++ {
		start := time.Now()
		if in, err = setUp(w, seed, sz, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.reps["setup_s"] = append(res.reps["setup_s"], time.Since(start).Seconds())
	}
	r := &runner{w: w, in: in, sz: sz, due: make([]int64, in.records)}

	// count books a rep's operations and keeps its failure, if any.
	count := func(out *repOut) {
		res.attempted += in.operations(w)
		if out.bad != "" {
			res.failed += in.operations(w)
			res.notes = append(res.notes, out.bad)
		}
	}
	warm, err := r.rep(w.name+"-warm", repWarm)
	if err != nil {
		return nil, err
	}
	if warm.bad != "" {
		res.notes = append(res.notes, "warm-up: "+warm.bad)
	}

	// measured runs one untraced rep and files its end-to-end readings.
	measured := func(i int) (*repOut, error) {
		out, err := r.rep(fmt.Sprintf("%s-r%d", w.name, i), repMeasured)
		if err != nil {
			return nil, err
		}
		count(out)
		n := float64(in.records)
		add := func(name string, v float64) { res.reps[name] = append(res.reps[name], v) }
		add("records_per_sec", n/out.wall.Seconds())
		add("cpu_ns_per_record", float64(out.cpu)/n)
		add("verdict_p50_ms", quantile(out.verdictMS, 0.5))
		add("verdict_p99_ms", quantile(out.verdictMS, 0.99))
		add("push_p50_ms", quantile(out.pushMS, 0.5))
		add("push_p99_ms", quantile(out.pushMS, 0.99))
		add("verdict_samples", float64(len(out.verdictMS)))
		add("push_samples", float64(len(out.pushMS)))
		if len(out.pushMS) > 0 { // a smoke rep can be over before the first push is due
			add("cpu_us_per_push", float64(out.cpu)/1e3/float64(len(out.pushMS)))
		}
		return out, nil
	}
	res.reps["live_heap_mb"] = []float64{warm.heapMB}

	if !traced {
		deadline := time.Now().Add(budget)
		for i := 0; i < sz.minReps || time.Now().Before(deadline); i++ {
			if _, err := measured(i); err != nil {
				return nil, err
			}
		}
		for _, d := range endToEnd {
			res.values[d.name] = d.steady(res.reps[d.name])
		}
		return res, nil
	}

	// The traced run alternates untraced and traced reps, so both see
	// the same weather. The table comes from the quickest traced rep,
	// the overhead from the quickest of each kind.
	var best *repOut
	plain := time.Duration(math.MaxInt64)
	for i := 0; i < sz.tracedPairs; i++ {
		out, err := measured(i)
		if err != nil {
			return nil, err
		}
		plain = min(plain, out.wall)
		if out, err = r.rep(fmt.Sprintf("%s-t%d", w.name, i), repTraced); err != nil {
			return nil, err
		}
		count(out)
		if best == nil || out.wall < best.wall {
			best = out
		}
	}
	if err := best.tr.write(filepath.Join(outDir, w.name+".trace.jsonl")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	split, err := r.rep(w.name+"-split", repSplit)
	if err != nil {
		return nil, err
	}
	count(split)
	iso, err := isolate(in)
	if err != nil {
		return nil, fmt.Errorf("isolated layers: %w", err)
	}
	r.layerTable(res, warm, best, split, iso, plain.Seconds())
	return res, nil
}

// layerTable fills in the per-layer metrics from the traced rep, the
// warm-up rep's heap reading, the split rep's CPU attribution and the
// isolated measurements.
func (r *runner) layerTable(res *result, warm, out, split *repOut, iso isolated, untracedWall float64) {
	v := res.values
	n := float64(r.in.records)
	for _, d := range perLayer {
		v[d.name] = 0 // rows a workload has nothing to say on stay 0
	}
	// The latencies come from the untraced reps of this run, like
	// every number a user would see.
	for _, d := range perLayer[:latencyRows] {
		v[d.name] = d.steady(res.reps[d.name])
	}
	tr := out.tr
	readNS, importNS, intakeNS := tr.sums()
	if tr.reader != nil {
		v["pcap.read_ns_per_record"] = float64(readNS) / n
		v["pcap.read_calls_per_record"] = float64(tr.reader.calls) / n
		v["pcap.bytes_per_record"] = float64(tr.reader.bytes) / n
		v["trace.import_ns_per_record"] = float64(importNS) / n
	}
	v["packet.decode_ns_per_record"] = iso.decodeNS
	v["packet.decode_allocs_per_record"] = iso.decodeAllocs
	v["trace.import_allocs_per_record"] = iso.importAllocs
	v["trace.import_bytes_per_record"] = iso.importBytes

	t := out.totals
	var promoted uint64
	for _, c := range t.TriagePromotions {
		promoted += c
	}
	v["triage.observe_ns_per_record"] = iso.observeNS
	v["triage.promoted_flow_share"] = float64(promoted) / float64(t.FlowsSeen)
	v["triage.fast_record_share"] = float64(t.TriageFastRecords) / float64(t.Ingested)
	v["triage.truncated_promotions"] = float64(t.TriageTruncatedPromotions)

	v["core.feed_ns_per_record"] = iso.feedNS
	v["core.feed_allocs_per_record"] = iso.feedAllocs
	v["core.stalls"] = float64(iso.stalls)
	v["flight.overhead_ratio"] = iso.flightRatio

	dwell := make([]float64, 0, len(tr.verdicts))
	for _, vd := range tr.verdicts {
		b := tr.batches[tr.batchOf(vd.pos)]
		dwell = append(dwell, float64(max(vd.at-b.end, 0))/1e6)
	}
	v["live.intake_ns_per_record"] = float64(intakeNS) / n
	v["live.intake_batch_mean"] = n / float64(len(tr.batches))
	v["live.dwell_p50_ms"] = quantile(dwell, 0.5)
	v["live.dwell_p99_ms"] = quantile(dwell, 0.99)
	v["live.close_ms"] = out.liveCloseMS
	v["live.snapshot_us"] = out.liveSnapUS
	v["live.heap_kb_per_flow"] = warm.heapMB * 1024 / float64(r.in.flows)
	v["live.records_fed"] = float64(t.RecordsFed)
	v["live.ring_drops"] = float64(t.RingDrops)
	v["live.record_cap_drops"] = float64(t.RecordCapDrops)
	v["live.flows_seen"] = float64(t.FlowsSeen)
	v["live.flows_evicted_lru"] = float64(t.FlowsEvicted["lru"])

	var rejected uint64
	for _, c := range out.headStats.Rejects {
		rejected += c
	}
	v["fleet.member_snapshot_us"] = out.mbSnapUS
	v["fleet.push_bytes"] = out.pushBytes
	v["fleet.head_merge_p50_ms"] = out.headStats.MergeP50MS
	v["fleet.head_merge_p99_ms"] = out.headStats.MergeP99MS
	v["fleet.head_totals_us"] = out.totalsUS
	v["fleet.member_close_ms"] = out.mbCloseMS
	v["fleet.pushes_rejected"] = float64(rejected)

	v["pipeline.run_records_per_sec"] = iso.pipelineRate

	var late []float64
	if r.w.paced {
		p := newPacer(r.sz.pacedRate, replayChunk)
		late = make([]float64, 0, r.in.records)
		for _, b := range tr.batches {
			for i := b.lo; i < b.hi; i++ {
				late = append(late, float64(p.late(i, b.handAt))/1e6)
			}
		}
	}
	v["chain.allocs_per_record"] = float64(out.mem1.Mallocs-out.mem0.Mallocs) / n
	v["chain.alloc_bytes_per_record"] = float64(out.mem1.TotalAlloc-out.mem0.TotalAlloc) / n
	v["chain.gc_cpu_share"] = out.gcCPU / out.cpu.Seconds()
	v["chain.source_cpu_ns_per_record"] = float64(split.sourceCPU) / n
	v["chain.offsource_cpu_ns_per_record"] = float64(split.cpu-split.sourceCPU) / n
	v["chain.gen_late_p99_ms"] = quantile(late, 0.99)
	v["chain.achieved_over_offered"] = r.achieved(out)
	v["chain.decode_ceiling_records_per_sec"] = iso.ceilingRate
	if iso.ceilingRate > 0 {
		v["chain.share_of_decode_ceiling"] = n / untracedWall / iso.ceilingRate
	}
	v["chain.trace_overhead_ratio"] = out.wall.Seconds() / untracedWall
}

// printResult writes the run's table for a reader.
func printResult(res *result) {
	kind := "end to end"
	if res.traced {
		kind = "per layer (traced rep)"
	}
	fmt.Printf("\n== %s — %s: %d operations attempted, %d failed\n", res.workload, kind, res.attempted, res.failed)
	for _, note := range res.notes {
		fmt.Println("   FAILED:", note)
	}
	for _, d := range defsOf(res.traced) {
		fmt.Printf("%-38s %16.4f %-6s", d.name, res.values[d.name], d.unit)
		if reps := res.reps[d.name]; len(reps) > 1 {
			fmt.Printf("  better half of %d, iqr %.1f%%", len(reps), 100*iqrShare(reps))
		}
		fmt.Println()
	}
}
