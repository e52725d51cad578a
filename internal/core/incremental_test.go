package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// incremental runs a flow through the streaming analyzer one record
// at a time, checking the scoreboard after each and the OnStall events
// against a run that settles nothing before Flush, and returns its
// marshalled analysis.
func incremental(t *testing.T, f *trace.Flow) []byte {
	t.Helper()
	inc := core.NewIncremental(core.Config{})
	inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	var events []core.LiveStall
	inc.OnStall = func(ls core.LiveStall) { events = append(events, ls) }
	core.FeedChecked(t, inc, f.Records)
	a := inc.Flush()
	core.CheckLiveStalls(t, events, core.AnalyzeHeld(f))
	b, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
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
// the batch analyzer, and its OnStall events to a run that settles
// nothing before Flush, on the three committed golden pcaps — one per
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
			if got, want := incremental(t, f), batch(t, f); !bytes.Equal(got, want) {
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
				if got, want := incremental(t, f), batch(t, f); !bytes.Equal(got, want) {
					t.Errorf("%s: incremental != batch\ninc:   %s\nbatch: %s", f.ID, got, want)
				}
			}
		}
	}
}

// TestIncrementalLiveStalls checks the streaming event contract on
// every service model: each OnStall event is the stall of the same ID
// that a run settling nothing before Flush reports, Position aside
// (CheckLiveStalls), early settlement leaves the flushed analysis as
// that run's, and stall end times are nondecreasing.
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
			held := core.AnalyzeHeld(f)
			core.CheckLiveStalls(t, events, held)
			got, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.MarshalAnalyses([]*core.FlowAnalysis{held})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: settled mid-flow != held to Flush\nmid-flow: %s\nheld:     %s", f.ID, got, want)
			}
			for i, st := range a.Stalls {
				if st.Start >= st.End {
					t.Errorf("%s stall %d: Start %v >= End %v", f.ID, i, st.Start, st.End)
				}
				if i > 0 && st.End < a.Stalls[i-1].End {
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

// TestStallsSettleMidFlow: publication waits for a settled verdict,
// not for the flow's end. On golden_network and golden_client every
// stall's OnStall fires while records are still being fed, stall 2 of
// golden_network, whose tail test is open at close, included.
func TestStallsSettleMidFlow(t *testing.T) {
	for _, name := range []string{"golden_network", "golden_client"} {
		fh, err := os.Open(filepath.Join("testdata", name+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		flows, err := trace.ImportPcap(fh, trace.ImportConfig{})
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		before, total := 0, 0
		for _, f := range flows {
			var events []core.LiveStall
			inc := core.NewIncremental(core.Config{})
			inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
			inc.OnStall = func(ls core.LiveStall) { events = append(events, ls) }
			inc.FeedBatch(f.Records)
			before += len(events)
			inc.Flush()
			held := core.AnalyzeHeld(f)
			core.CheckLiveStalls(t, events, held)
			total += len(held.Stalls)
		}
		if before != total || total == 0 {
			t.Errorf("%s: %d of %d stalls settled before Flush, want all", name, before, total)
		}
	}
}

// TestAveragesWithoutSeries: with the per-ACK series off, AvgRTT and
// AvgRTO equal — exactly, as float64 — the means of the series kept
// with them on, and no series is filled. The flows span every service
// model, at random ISNs and at ISNs that wrap early in the flow.
func TestAveragesWithoutSeries(t *testing.T) {
	wrap := func(c *tcpsim.ConnConfig) {
		c.ISNRng = nil
		c.ServerISN = 0xFFFFF000 // wraps ~4 KB into the response
		c.ClientISN = 0xFFFFFF80 // wraps during the first request
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	rtts, rtos := 0, 0
	for _, svc := range workload.Services() {
		for _, mutate := range []func(*tcpsim.ConnConfig){nil, wrap} {
			for _, fr := range workload.Generate(svc, 9, workload.GenOptions{Flows: 20, Mutate: mutate}) {
				f := fr.Flow
				off := core.Analyze(f, core.Config{})
				on := core.Analyze(f, core.Config{PerACKSeries: true})
				if off.RTTSamplesMS != nil || off.RTOSamplesMS != nil || off.InFlightOnAck != nil {
					t.Fatalf("%s: series off, yet %d RTT, %d RTO and %d in_flight samples kept",
						f.ID, len(off.RTTSamplesMS), len(off.RTOSamplesMS), len(off.InFlightOnAck))
				}
				if got, want := off.AvgRTT(), mean(on.RTTSamplesMS); got != want {
					t.Errorf("%s: AvgRTT() = %v without the series, their mean is %v", f.ID, got, want)
				}
				if got, want := off.AvgRTO(), mean(on.RTOSamplesMS); got != want {
					t.Errorf("%s: AvgRTO() = %v without the series, their mean is %v", f.ID, got, want)
				}
				if on.AvgRTT() != off.AvgRTT() || on.AvgRTO() != off.AvgRTO() {
					t.Errorf("%s: keeping the series moved the averages", f.ID)
				}
				rtts += len(on.RTTSamplesMS)
				rtos += len(on.RTOSamplesMS)
			}
		}
	}
	if rtts == 0 || rtos == 0 {
		t.Fatalf("%d RTT and %d RTO samples in all; the check is vacuous", rtts, rtos)
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
			want := incremental(t, f)
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
