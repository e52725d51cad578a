package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// incremental runs a flow through the streaming analyzer one record
// at a time, checking the scoreboard after each, and returns its
// marshalled analysis.
func incremental(t *testing.T, f *trace.Flow, onStall func(core.LiveStall)) []byte {
	t.Helper()
	inc := core.NewIncremental(core.Config{})
	inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	inc.OnStall = onStall
	core.FeedChecked(t, inc, f.Records)
	b, err := core.MarshalAnalyses([]*core.FlowAnalysis{inc.Flush()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func batch(t *testing.T, f *trace.Flow) []byte {
	t.Helper()
	b, err := core.MarshalAnalyses([]*core.FlowAnalysis{core.Analyze(f, core.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIncrementalMatchesBatchGolden pins the streaming analyzer to
// the batch analyzer on the three committed golden pcaps — one per
// Figure-5 stall family.
func TestIncrementalMatchesBatchGolden(t *testing.T) {
	for _, name := range []string{"golden_server", "golden_client", "golden_network"} {
		fh, err := os.Open(filepath.Join("testdata", name+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		flows, err := trace.ImportPcap(fh, trace.ImportConfig{})
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if got, want := incremental(t, f, nil), batch(t, f); !bytes.Equal(got, want) {
				t.Errorf("%s flow %s: incremental != batch\ninc:   %s\nbatch: %s", name, f.ID, got, want)
			}
		}
	}
}

// TestIncrementalMatchesBatchGenerated sweeps generated flows from
// every service model and its healthy twin — wireless jitter, slow
// readers, loss bursts, random ISNs — and requires byte-identical JSON
// from both paths.
func TestIncrementalMatchesBatchGenerated(t *testing.T) {
	for _, base := range workload.Services() {
		for _, svc := range []workload.Service{base, workload.Healthy(base)} {
			for _, fr := range workload.Generate(svc, 3, workload.GenOptions{Flows: 10}) {
				f := fr.Flow
				if len(f.Records) == 0 {
					continue
				}
				if got, want := incremental(t, f, nil), batch(t, f); !bytes.Equal(got, want) {
					t.Errorf("%s: incremental != batch\ninc:   %s\nbatch: %s", f.ID, got, want)
				}
			}
		}
	}
}

// TestIncrementalLiveStalls checks the streaming event contract: one
// event per final stall, in order, with the top-level cause already
// final at close time and stall end times nondecreasing.
func TestIncrementalLiveStalls(t *testing.T) {
	checked := 0
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 5, workload.GenOptions{Flows: 8}) {
			f := fr.Flow
			if len(f.Records) == 0 {
				continue
			}
			var events []core.LiveStall
			inc := core.NewIncremental(core.Config{})
			inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
			inc.OnStall = func(ls core.LiveStall) { events = append(events, ls) }
			for i := range f.Records {
				inc.Feed(&f.Records[i])
			}
			a := inc.Flush()

			if len(events) != len(a.Stalls) {
				t.Fatalf("%s: %d live events, %d final stalls", f.ID, len(events), len(a.Stalls))
			}
			for i, ev := range events {
				if ev.Index != i {
					t.Errorf("%s: event %d carries index %d", f.ID, i, ev.Index)
				}
				if ev.FlowID != f.ID || ev.Service != f.Service {
					t.Errorf("%s: event identity = %s/%s", f.ID, ev.FlowID, ev.Service)
				}
				st := a.Stalls[i]
				if ev.Stall.Start != st.Start || ev.Stall.End != st.End {
					t.Errorf("%s stall %d: live bounds [%v,%v] != final [%v,%v]",
						f.ID, i, ev.Stall.Start, ev.Stall.End, st.Start, st.End)
				}
				if ev.Stall.Cause != st.Cause {
					t.Errorf("%s stall %d: live cause %v != final %v (top cause must be final at close)",
						f.ID, i, ev.Stall.Cause, st.Cause)
				}
				if ev.Stall.Start >= ev.Stall.End {
					t.Errorf("%s stall %d: Start %v >= End %v", f.ID, i, ev.Stall.Start, ev.Stall.End)
				}
				if i > 0 && ev.Stall.End < events[i-1].Stall.End {
					t.Errorf("%s: stall end times regress at %d", f.ID, i)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("generated workload produced no stalls; test is vacuous")
	}
}

func TestIncrementalFlushTerminal(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	a1 := inc.Flush()
	a2 := inc.Flush()
	if a1 != a2 {
		t.Error("repeated Flush returned different analyses")
	}
	defer func() {
		if recover() == nil {
			t.Error("Feed after Flush did not panic")
		}
	}()
	inc.Feed(&trace.Record{})
}

// TestFeedBatchMatchesFeed: FeedBatch is defined as the per-record
// Feed loop, so any chunking of a flow's records — including the
// degenerate 1-record and whole-flow chunkings, with empty batches
// sprinkled in — must produce byte-identical JSON.
func TestFeedBatchMatchesFeed(t *testing.T) {
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 7, workload.GenOptions{Flows: 4}) {
			f := fr.Flow
			if len(f.Records) == 0 {
				continue
			}
			want := incremental(t, f, nil)
			for _, chunk := range []int{1, 3, 64, len(f.Records)} {
				inc := core.NewIncremental(core.Config{})
				inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
				inc.FeedBatch(nil) // empty batch is a no-op
				for lo := 0; lo < len(f.Records); lo += chunk {
					hi := lo + chunk
					if hi > len(f.Records) {
						hi = len(f.Records)
					}
					inc.FeedBatch(f.Records[lo:hi])
				}
				got, err := core.MarshalAnalyses([]*core.FlowAnalysis{inc.Flush()})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s chunk=%d: FeedBatch != Feed\nbatch: %s\nfeed:  %s", f.ID, chunk, got, want)
				}
			}
		}
	}
}

// TestFeedBatchAfterFlushPanics pins the terminal contract.
func TestFeedBatchAfterFlushPanics(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	inc.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("FeedBatch after Flush did not panic")
		}
	}()
	inc.FeedBatch(make([]trace.Record, 1))
}

// BenchmarkFeedFlight feeds generated flows of every service, one
// record at a time, each with a default flight recorder attached — the
// always-on configuration. Run with -benchmem: B/op is what the
// analyzers and recorders of 150 flows allocate, most of it per-flow
// state that the live monitor holds until eviction.
func BenchmarkFeedFlight(b *testing.B) {
	var flows []*trace.Flow
	records := 0
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 1, workload.GenOptions{Flows: 50}) {
			flows = append(flows, fr.Flow)
			records += len(fr.Flow.Records)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range flows {
			inc := core.NewIncremental(core.Config{})
			inc.SetRecorder(flight.NewRecorder(flight.Config{}))
			for j := range f.Records {
				inc.Feed(&f.Records[j])
			}
			inc.Flush()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
