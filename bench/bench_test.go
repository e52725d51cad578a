package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the tables in this
// package to each other: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(specs))
	}
	for i, w := range specs {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if w := (jsonMetric{d.name, d.unit, better(d), d.bound}); got[i] != w {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"sh", "bench/run.sh"}) {
		t.Errorf("command %v over paths %v: want sh bench/run.sh over bench", b.Command, b.Paths)
	}
	if _, err := os.Stat("run.sh"); err != nil {
		t.Error(err)
	}
	if float64(b.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %v", b.RunSeconds, defaultSeconds)
	}
}

// exactCounts are the per-layer rows that are counts of the input and
// of deterministic work on it, not timings: they must repeat exactly
// for a seed and move when the seed does. (How many pushes a capture
// workload makes depends on the clock, so push_samples is exact on
// fleet_push only.)
func exactCounts(w spec, res *result) map[string]float64 {
	names := []string{
		"core.stalls", "verdict_samples", "live.records_fed", "live.flows_seen",
		"pcap.read_calls_per_record", "pcap.bytes_per_record", "triage.promoted_flow_share",
	}
	if w.fleet {
		names = append(names, "push_samples")
	}
	counts := map[string]float64{"attempted": float64(res.attempted)}
	for _, name := range names {
		counts[name] = res.values[name]
	}
	return counts
}

// TestSmoke runs every workload at smoke size — end to end once, traced
// twice on one seed and once on another — and checks that every rep
// passes its gate, that exactly the contract's metrics come out, and
// that the exact counts are a function of the seed.
func TestSmoke(t *testing.T) {
	if err := pinCores(); err != nil {
		t.Skip(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	for _, w := range specs {
		runIt := func(seed int64, traced bool) *result {
			res, err := run(w, seed, smokeSize, 0, traced, dir)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.notes)
			}
			want := map[string]bool{}
			for _, d := range defsOf(traced) {
				want[d.name] = true
				if _, ok := res.values[d.name]; !ok {
					t.Errorf("%s: metric %s missing", w.name, d.name)
				}
			}
			for name := range res.values {
				if !want[name] {
					t.Errorf("%s: metric %s is not in the contract", w.name, name)
				}
			}
			return res
		}
		e2e := runIt(11, false)
		for _, d := range endToEnd {
			if e2e.values[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, e2e.values[d.name])
			}
		}
		first, again, other := exactCounts(w, runIt(11, true)), exactCounts(w, runIt(11, true)), exactCounts(w, runIt(12, true))
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: exact counts differ between two runs of one seed:\n%v\n%v", w.name, first, again)
		}
		if reflect.DeepEqual(first, other) {
			t.Errorf("%s: exact counts did not move with the seed: %v", w.name, first)
		}
		if !w.fleet && first["pcap.read_calls_per_record"] < 1 {
			t.Errorf("%s: pcap.read_calls_per_record is %v", w.name, first["pcap.read_calls_per_record"])
		}
		if _, err := os.Stat(dir + "/" + w.name + ".trace.jsonl"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}

func TestPacerDueTimes(t *testing.T) {
	p := newPacer(250_000, 512) // 4 µs apart
	for i, want := range map[int]int64{0: 0, 1: 4_000, 250_000: 1e9, 3: 12_000} {
		if got := p.due(i); got != want {
			t.Errorf("due(%d) = %d, want %d", i, got, want)
		}
	}
	if got := p.late(10, 40_000); got != 0 {
		t.Errorf("a record handed at its due time is %d ns late", got)
	}
	if got := p.late(10, 39_000); got != 0 {
		t.Errorf("a record handed early is %d ns late, want 0", got)
	}
	if got := p.late(10, 47_500); got != 7_500 {
		t.Errorf("late = %d, want 7500", got)
	}
	if closed := newPacer(0, 512); closed.open() || closed.due(1_000_000) != 0 {
		t.Errorf("a pacer without a rate must be the closed loop: everything due at once")
	}
}

// simulate drives a pacer the way the source does, on a fake clock on
// which the source takes work nanoseconds per record, and returns the
// batches handed over as (size, hand-over time) pairs.
func simulate(p *pacer, records int, work func(i int) int64) (sizes []int, at []int64) {
	now := int64(0)
	hand := func() {
		sizes = append(sizes, p.handed())
		at = append(at, now)
	}
	for i := 0; i < records; i++ {
		now += work(i)
		if handFirst, until := p.arrive(now); until > 0 {
			if handFirst {
				hand()
			}
			now = until
		}
		if p.admit(now) {
			hand()
		}
	}
	if p.pending > 0 {
		hand()
	}
	return sizes, at
}

func TestPacerHandsWhatIsDue(t *testing.T) {
	// A source quicker than the schedule hands every record alone, at
	// its due time, never early.
	p := newPacer(1e6, 4) // 1 µs apart
	sizes, at := simulate(p, 8, func(int) int64 { return 100 })
	if !reflect.DeepEqual(sizes, []int{1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Errorf("quick source: batches %v, want singles", sizes)
	}
	for i, handedAt := range at {
		if i > 0 && handedAt != p.due(i) {
			t.Errorf("quick source: record %d handed at %d, due %d", i, handedAt, p.due(i))
		}
	}

	// A source that loses 10 µs once falls ten records behind; it hands
	// what is due in full batches until it has caught up, then singles.
	p = newPacer(1e6, 4)
	sizes, at = simulate(p, 20, func(i int) int64 {
		if i == 3 {
			return 10_000
		}
		return 100
	})
	total, pos := 0, 0
	for b, n := range sizes {
		if n < 1 || n > 4 {
			t.Errorf("batch %d has %d records, cap is 4", b, n)
		}
		for i := pos; i < pos+n; i++ {
			if at[b] < p.due(i) {
				t.Errorf("record %d handed at %d before it was due at %d", i, at[b], p.due(i))
			}
		}
		pos += n
		total += n
	}
	if total != 20 {
		t.Errorf("handed %d of 20 records", total)
	}
	if !reflect.DeepEqual(sizes[:5], []int{1, 1, 1, 4, 4}) {
		t.Errorf("stalled source: batches %v, want three singles and then full batches", sizes)
	}
	if last := sizes[len(sizes)-1]; last != 1 {
		t.Errorf("stalled source never caught up: batches %v", sizes)
	}
	// Record 3 arrived 10 µs late and is accounted so.
	if got := p.late(3, at[3]); got < 7_000 {
		t.Errorf("record 3 counted %d ns late, it was held up 10 µs", got)
	}

	// The closed loop cuts batches by the cap alone.
	p = newPacer(0, 4)
	sizes, _ = simulate(p, 10, func(int) int64 { return 100 })
	if !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Errorf("closed loop: batches %v, want [4 4 2]", sizes)
	}
}

func TestWaitUntil(t *testing.T) {
	start := time.Now()
	until := int64(300 * time.Microsecond)
	if got := waitUntil(start, until); got < until {
		t.Errorf("waitUntil returned at %d, before %d", got, until)
	}
}

func TestSteadyAndSpread(t *testing.T) {
	cost := metricDef{name: "c"}
	rate := metricDef{name: "r", higher: true}
	vals := []float64{5, 1, 3, 2, 4, 100}
	if got := cost.steady(vals); got != 2 {
		t.Errorf("steady cost = %v, want the mean of 1,2,3", got)
	}
	if got := rate.steady(vals); got != (4+5+100)/3.0 {
		t.Errorf("steady rate = %v, want the mean of 4,5,100", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := rate.worseBy(100, 90); got != 0.1 {
		t.Errorf("a rate falling from 100 to 90 is worse by %v, want 0.1", got)
	}
	if got := cost.worseBy(100, 90); got != -0.1 {
		t.Errorf("a cost falling from 100 to 90 is worse by %v, want -0.1", got)
	}
}
