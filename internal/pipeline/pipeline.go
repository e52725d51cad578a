// Package pipeline runs TAPO flow analysis on a bounded worker pool:
// a source streams flows in as they become available (from a pcap
// being read, a generated workload, or an in-memory slice), workers
// run the pure core.Analyze concurrently, and the results merge
// deterministically — ordered by flow key, never by completion time —
// so the parallel pipeline is bit-identical to a sequential pass over
// the same flows no matter how many workers run or how the scheduler
// interleaves them.
//
// This batch pipeline and the online monitor (internal/live) are two
// drivers of the same analysis: core.Analyze is implemented as
// core.NewIncremental + Feed every record + Flush, so analyzing a
// completed flow here produces byte-identical output to streaming the
// same records through the live monitor and evicting the flow. Only
// the benchmarks use this package; cmd/tapo and cmd/tapod stream
// captures through internal/live, and internal/experiments runs
// core.Analyze itself.
package pipeline

import (
	"io"
	"runtime"
	"sort"
	"sync"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// Source streams flows into the pipeline, calling yield once per
// flow. A yield error aborts the source, which must return it.
type Source func(yield func(*trace.Flow) error) error

// FromFlows streams an in-memory slice. Nil entries are skipped.
func FromFlows(flows []*trace.Flow) Source {
	return func(yield func(*trace.Flow) error) error {
		for _, f := range flows {
			if f == nil {
				continue
			}
			if err := yield(f); err != nil {
				return err
			}
		}
		return nil
	}
}

// FromResults streams the flows of a generated workload, skipping
// results whose trace collection was disabled.
func FromResults(results []workload.FlowResult) Source {
	return func(yield func(*trace.Flow) error) error {
		for _, r := range results {
			if r.Flow == nil {
				continue
			}
			if err := yield(r.Flow); err != nil {
				return err
			}
		}
		return nil
	}
}

// FromPcap streams a capture, handing each flow to the workers as
// soon as the demuxer completes it — analysis overlaps the file read
// instead of waiting for one giant slice.
func FromPcap(r io.Reader, cfg trace.ImportConfig) Source {
	return func(yield func(*trace.Flow) error) error {
		return trace.ImportPcapStream(r, cfg, yield)
	}
}

// batchSize is how many flows ride one channel handoff. Big enough
// to amortize send/wakeup costs over cheap flows, small enough that a
// capture with a few hundred connections still spreads across the
// pool.
const batchSize = 32

// Options tunes a pipeline run.
type Options struct {
	// Workers bounds the analysis pool; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Result is the merged output of a pipeline run.
type Result struct {
	// Analyses is ordered by (FlowID, arrival index) — a total order
	// independent of worker count and scheduling.
	Analyses []*core.FlowAnalysis
	// Report is the per-worker reports merged associatively; it equals
	// core.NewReport(Analyses).
	Report *core.Report
}

// Run streams flows from src through the worker pool and merges the
// results deterministically.
func Run(src Source, opt Options) (*Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Flows move through the pool in small batches: one channel
	// handoff per batchSize analyses, so cheap flows (a web-search
	// page is a few microseconds of analysis) don't drown in
	// per-send scheduling overhead.
	type batch struct {
		base  int // arrival index of flows[0]
		flows []*trace.Flow
	}
	type done struct {
		idx int
		a   *core.FlowAnalysis
	}

	jobs := make(chan batch, 2*workers)
	out := make(chan []done, 2*workers)

	reports := make([]*core.Report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := core.NewReport(nil)
			for b := range jobs {
				ds := make([]done, 0, len(b.flows))
				for i, f := range b.flows {
					a := core.Analyze(f, core.Config{})
					rep.Add(a)
					ds = append(ds, done{b.base + i, a})
				}
				out <- ds
			}
			reports[w] = rep
		}(w)
	}

	var srcErr error
	go func() {
		defer close(jobs)
		idx := 0
		pending := batch{base: 0}
		srcErr = src(func(f *trace.Flow) error {
			pending.flows = append(pending.flows, f)
			idx++
			if len(pending.flows) >= batchSize {
				jobs <- pending
				pending = batch{base: idx}
			}
			return nil
		})
		if len(pending.flows) > 0 {
			jobs <- pending
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	var results []done
	for ds := range out {
		results = append(results, ds...)
	}
	// The out channel closed after every worker exited, which in turn
	// happened after the producer wrote srcErr and closed jobs — the
	// read below is ordered after the write.
	if srcErr != nil {
		return nil, srcErr
	}

	// Deterministic merge: flow key first, arrival order as the
	// tie-break for duplicate IDs.
	sort.Slice(results, func(i, j int) bool {
		if results[i].a.FlowID != results[j].a.FlowID {
			return results[i].a.FlowID < results[j].a.FlowID
		}
		return results[i].idx < results[j].idx
	})

	res := &Result{Report: core.NewReport(nil)}
	for w := 0; w < workers; w++ {
		if reports[w] != nil {
			res.Report.Merge(reports[w])
		}
	}
	for _, d := range results {
		res.Analyses = append(res.Analyses, d.a)
	}
	return res, nil
}
