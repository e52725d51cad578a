// Package experiments regenerates every table and figure of the
// paper's evaluation from the synthetic dataset: Table 1 (dataset
// statistics), Figures 1/3/6/7/10/11/12 (distributions), Tables 3–7
// (stall breakdowns) and Tables 8–9 (the S-RTO production A/B). Each
// experiment returns structured rows for tests plus a rendered
// paper-style table.
package experiments

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcpstall/internal/core"
	"tcpstall/internal/workload"
)

// Options tunes dataset generation.
type Options struct {
	// Seed drives all randomness (default 20141222, the dataset's
	// first capture day).
	Seed int64
	// Scale multiplies each service's default flow count (default 1).
	Scale float64
	// FlowsOverride fixes the per-service flow count when > 0.
	FlowsOverride int
	// Workers bounds the simulation and analysis pools (<= 0:
	// one per CPU). The dataset is identical for every worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 20141222
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

// Dataset is one service's generated flows plus their TAPO analyses.
type Dataset struct {
	Service  workload.Service
	Results  []workload.FlowResult
	Analyses []*core.FlowAnalysis
	Report   *core.Report
}

// BuildDataset generates and analyzes one service, using one worker
// per CPU.
func BuildDataset(svc workload.Service, seed int64, flows int) *Dataset {
	return buildDataset(svc, seed, flows, 0)
}

func buildDataset(svc workload.Service, seed int64, flows, workers int) *Dataset {
	res := workload.Generate(svc, seed, workload.GenOptions{Flows: flows, Workers: workers})
	// Figure 11 reads every analysis's per-ACK in_flight series.
	cfg := core.DefaultConfig()
	cfg.PerACKSeries = true
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	analyses := make([]*core.FlowAnalysis, len(res))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(res); i = int(next.Add(1) - 1) {
				if f := res[i].Flow; f != nil {
					analyses[i] = core.Analyze(f, cfg)
				}
			}
		}()
	}
	wg.Wait()
	ds := &Dataset{Service: svc, Results: res}
	for _, a := range analyses {
		if a != nil {
			ds.Analyses = append(ds.Analyses, a)
		}
	}
	// Flow-ID order, generation order among equal IDs.
	sort.SliceStable(ds.Analyses, func(i, j int) bool { return ds.Analyses[i].FlowID < ds.Analyses[j].FlowID })
	ds.Report = core.NewReport(ds.Analyses)
	return ds
}

// BuildAll generates the three services.
func BuildAll(opt Options) []*Dataset {
	opt.defaults()
	var out []*Dataset
	for i, svc := range workload.Services() {
		n := opt.FlowsOverride
		if n <= 0 {
			n = int(float64(svc.DefaultFlows) * opt.Scale)
			if n < 10 {
				n = 10
			}
		}
		out = append(out, buildDataset(svc, opt.Seed+int64(i)*7919, n, opt.Workers))
	}
	return out
}

// ShortName compresses service names for table headers, following the
// paper ("cloud stor.", "soft. down.", "web search").
func ShortName(s string) string {
	switch s {
	case "cloud-storage":
		return "cloud stor."
	case "software-download":
		return "soft. down."
	case "web-search":
		return "web search"
	default:
		return s
	}
}

// doneFlows filters to completed connections.
func (d *Dataset) doneFlows() []workload.FlowResult {
	out := make([]workload.FlowResult, 0, len(d.Results))
	for _, r := range d.Results {
		if r.Metrics.Done {
			out = append(out, r)
		}
	}
	return out
}

// analysisByID indexes analyses for joint flow/analysis walks.
func (d *Dataset) analysisByID() map[string]*core.FlowAnalysis {
	m := make(map[string]*core.FlowAnalysis, len(d.Analyses))
	for _, a := range d.Analyses {
		m[a.FlowID] = a
	}
	return m
}
