package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// sequentialJSON is the reference the parallel pipeline must match:
// one core.Analyze call per flow under the default configuration on a
// single goroutine, ordered by the pipeline's canonical (FlowID,
// arrival) key.
func sequentialJSON(t *testing.T, flows []*trace.Flow) []byte {
	t.Helper()
	type keyed struct {
		idx int
		a   *core.FlowAnalysis
	}
	var ref []keyed
	for i, f := range flows {
		ref = append(ref, keyed{i, core.Analyze(f, core.DefaultConfig())})
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].a.FlowID != ref[j].a.FlowID {
			return ref[i].a.FlowID < ref[j].a.FlowID
		}
		return ref[i].idx < ref[j].idx
	})
	var analyses []*core.FlowAnalysis
	for _, k := range ref {
		analyses = append(analyses, k.a)
	}
	buf, err := core.MarshalAnalyses(analyses)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func flowsOf(results []workload.FlowResult) []*trace.Flow {
	var flows []*trace.Flow
	for _, r := range results {
		if r.Flow != nil {
			flows = append(flows, r.Flow)
		}
	}
	return flows
}

// TestSequentialEquivalence is the pipeline's core guarantee: for
// every service and every worker count, the parallel pipeline's JSON
// report is byte-identical to the sequential analysis of the same
// flows.
func TestSequentialEquivalence(t *testing.T) {
	services := []struct {
		svc   workload.Service
		flows int
	}{
		{workload.CloudStorage(), 5},
		{workload.SoftwareDownload(), 8},
		{workload.WebSearch(), 14},
	}
	for _, sc := range services {
		sc := sc
		t.Run(sc.svc.Name, func(t *testing.T) {
			flows := flowsOf(workload.Generate(sc.svc, 20141222, workload.GenOptions{Flows: sc.flows}))
			if len(flows) == 0 {
				t.Fatal("no flows generated")
			}
			want := sequentialJSON(t, flows)
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(FromFlows(flows), Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got, err := core.MarshalAnalyses(res.Analyses)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: pipeline JSON differs from sequential (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// TestPipelineDeterminism re-runs the same parallel configuration and
// demands bit-identical output: completion order must never leak into
// the merged result.
func TestPipelineDeterminism(t *testing.T) {
	flows := flowsOf(workload.Generate(workload.WebSearch(), 7, workload.GenOptions{Flows: 16}))
	var first []byte
	for run := 0; run < 3; run++ {
		res, err := Run(FromFlows(flows), Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.MarshalAnalyses(res.Analyses)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d produced different bytes", run)
		}
	}
}

// TestPipelineRaceGuard is the tier-1 concurrency guard: a tiny
// end-to-end pipeline per worker count, running as parallel subtests
// so `go test -race ./...` exercises the pool under contention — a
// data race fails the ordinary test run, not just the benchmarks.
func TestPipelineRaceGuard(t *testing.T) {
	flows := flowsOf(workload.Generate(workload.WebSearch(), 99, workload.GenOptions{Flows: 10}))
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	want := sequentialJSON(t, flows)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			res, err := Run(FromFlows(flows), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.MarshalAnalyses(res.Analyses)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: output differs from sequential", workers)
			}
			if res.Report.Flows != len(flows) {
				t.Errorf("report covers %d flows, want %d", res.Report.Flows, len(flows))
			}
		})
	}
}

// TestMergedReportMatchesNewReport checks the associative merge of
// per-worker reports equals a single-pass aggregation.
func TestMergedReportMatchesNewReport(t *testing.T) {
	flows := flowsOf(workload.Generate(workload.SoftwareDownload(), 3, workload.GenOptions{Flows: 8}))
	res, err := Run(FromFlows(flows), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewReport(res.Analyses)
	got := res.Report
	if got.Flows != want.Flows || got.FlowsStalled != want.FlowsStalled ||
		got.TotalStalls != want.TotalStalls || got.TotalStallTime != want.TotalStallTime ||
		got.FlowsZeroRwnd != want.FlowsZeroRwnd {
		t.Errorf("merged report totals differ: got %+v want %+v", got, want)
	}
	for c, n := range want.CountByCause {
		if got.CountByCause[c] != n {
			t.Errorf("cause %v count = %d, want %d", c, got.CountByCause[c], n)
		}
	}
	for c, d := range want.RetransTimeByCause {
		if got.RetransTimeByCause[c] != d {
			t.Errorf("retrans cause %v time = %v, want %v", c, got.RetransTimeByCause[c], d)
		}
	}
}

// TestPipelineFromPcapMatchesBatchImport round-trips generated flows
// through a pcap capture and checks the streaming source produces the
// same merged analyses as the batch importer.
func TestPipelineFromPcapMatchesBatchImport(t *testing.T) {
	flows := flowsOf(workload.Generate(workload.WebSearch(), 21, workload.GenOptions{Flows: 8}))
	var buf bytes.Buffer
	if err := trace.ExportPcap(&buf, flows, trace.ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	pcapBytes := buf.Bytes()

	imported, err := trace.ImportPcap(bytes.NewReader(pcapBytes), trace.ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(flows) {
		t.Fatalf("imported %d flows, want %d", len(imported), len(flows))
	}
	want := sequentialJSON(t, imported)

	for _, workers := range []int{1, 4} {
		res, err := Run(FromPcap(bytes.NewReader(pcapBytes), trace.ImportConfig{}), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.MarshalAnalyses(res.Analyses)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: streaming pcap analysis differs from batch import", workers)
		}
	}
}

// TestRunPropagatesSourceError checks a failing source aborts the run
// and surfaces its error.
func TestRunPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := func(yield func(*trace.Flow) error) error {
		if err := yield(&trace.Flow{ID: "one"}); err != nil {
			return err
		}
		return boom
	}
	if _, err := Run(src, Options{Workers: 2}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunEmptySource checks the zero-flow edge.
func TestRunEmptySource(t *testing.T) {
	res, err := Run(FromFlows(nil), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Analyses) != 0 || res.Report.Flows != 0 {
		t.Errorf("empty source produced %d analyses", len(res.Analyses))
	}
}
