// Command tapo is the TCP stall diagnosis tool of the paper: it reads
// server-side packet captures (classic .pcap), reconstructs every
// flow's congestion state, detects stalls — gaps exceeding
// min(2·SRTT, RTO) — and classifies each stall's root cause with the
// Figure-5 decision tree plus the Table-5 retransmission breakdown.
//
// The capture streams through the live.Monitor that tapod runs, with
// every limit off, and the analyses are printed in flow-ID order.
//
// Usage:
//
//	tapo [-port 80[=service],...] [-tau T] [-v] [-json] capture.pcap
//	tapo explain [-flow ID] [-stall N] [-trace-out f.jsonl] capture.pcap
//
// A capture to try it on: tracegen -service web-search -o ws.pcap.
//
// The explain subcommand streams the capture through the same monitor
// with a flight recorder per flow and narrates each stall, in flow-ID
// order: the Figure-5/Table-5 decision path with the concrete values
// that chose every branch, and the packet window around the silent
// gap.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		explainMain(os.Args[2:])
		return
	}
	port := flag.String("port", "80", portUsage)
	verbose := flag.Bool("v", false, "print every stall of every flow")
	jsonOut := flag.Bool("json", false, "emit the full analysis as JSON on stdout")
	tau := flag.Float64("tau", 2, "stall threshold multiplier in min(tau*SRTT, RTO)")
	flag.Parse()
	ports := parsePorts(*port)
	checkTau(*tau)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tapo [-port 80[=service],...] [-tau T] [-v] [-json] capture.pcap")
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	analyses, err := analyzeCapture(bufio.NewReaderSize(f, readBuf), trace.ImportConfig{Ports: ports}, live.Config{Analysis: cfg}, nil, nil)
	if err != nil {
		fatal(err)
	}

	if *verbose && !*jsonOut {
		for _, a := range analyses {
			if len(a.Stalls) == 0 {
				continue
			}
			fmt.Printf("flow %s: %d stalls, %.1f%% of lifetime stalled\n",
				a.FlowID, len(a.Stalls), 100*a.StalledFraction())
			for i := range a.Stalls {
				js := a.Stalls[i].JSON()
				cause := js.Cause
				if js.SubCause != "" {
					cause += "/" + js.SubCause
				}
				if js.DoubleKind != "" {
					cause += "(" + js.DoubleKind + ")"
				}
				fmt.Printf("  %9.3fs +%6.0fms  %-32s state=%s in_flight=%d rwnd=%d\n",
					js.StartS, js.DurationMS, cause, js.CaState, js.InFlight, js.Rwnd)
			}
		}
	}

	if *jsonOut {
		buf, merr := core.MarshalAnalyses(analyses)
		if merr != nil {
			fatal(merr)
		}
		if _, werr := os.Stdout.Write(buf); werr != nil {
			fatal(werr)
		}
		return
	}
	report(core.NewReport(analyses))
}

// readBuf is the read-ahead both subcommands put in front of the
// capture file, so the decoder's two reads per record hit memory.
const readBuf = 64 << 10

// analyzeCapture streams r in chunks of 512 records through a
// live.Monitor whose flow, record and idle limits cannot bind, so each
// flow is analyzed whole; lcfg supplies the analysis and flight
// settings. source, when set, sees each event first: false drops it,
// an error ends the read. keep, when set, sees each evicted flow with
// its recorder, one at a time, and false drops it. The analyses come
// back in flow-ID order.
func analyzeCapture(r io.Reader, icfg trace.ImportConfig, lcfg live.Config,
	source func(*trace.RecordEvent) (bool, error), keep func(*core.FlowAnalysis, *flight.Recorder) bool) ([]*core.FlowAnalysis, error) {
	var mu sync.Mutex
	var analyses []*core.FlowAnalysis
	lcfg.MaxFlows = math.MaxInt
	lcfg.MaxRecordsPerFlow = -1
	lcfg.IdleTimeout = math.MaxInt64
	lcfg.OnFlow = func(_ string, a *core.FlowAnalysis, rec *flight.Recorder) {
		mu.Lock()
		if keep == nil || keep(a, rec) {
			analyses = append(analyses, a)
		}
		mu.Unlock()
	}
	m := live.New(lcfg)
	m.Start()
	buf := make([]trace.RecordEvent, 0, 512)
	err := trace.ImportPcapRecords(r, icfg, func(ev trace.RecordEvent) error {
		buf = append(buf, ev) // source sees ev in place: &ev would move every ev to the heap
		if source != nil {
			if ok, err := source(&buf[len(buf)-1]); !ok || err != nil {
				buf = buf[:len(buf)-1]
				return err
			}
		}
		if len(buf) == cap(buf) {
			m.IngestBatchWait(buf)
			buf = buf[:0]
		}
		return nil
	})
	m.IngestBatchWait(buf)
	m.Close() // evicts the flows still open at the end of the capture
	if err != nil {
		return nil, err
	}
	sort.Slice(analyses, func(i, j int) bool { return analyses[i].FlowID < analyses[j].FlowID })
	return analyses, nil
}

func report(r *core.Report) {
	fmt.Printf("\n%d flows, %d stalled (%.1f%%), %d stalls, %.1fs total stall time\n",
		r.Flows, r.FlowsStalled, 100*float64(r.FlowsStalled)/float64(max(r.Flows, 1)),
		r.TotalStalls, r.TotalStallTime.Seconds())

	t := stats.NewTable("\nStall causes:", "category", "cause", "# %", "time %")
	for _, c := range []core.Cause{
		core.CauseDataUnavailable, core.CauseResourceConstraint,
		core.CauseClientIdle, core.CauseZeroWindow,
		core.CausePacketDelay, core.CauseTimeoutRetrans, core.CauseUndetermined,
	} {
		t.AddRow(core.CategoryOf(c).String(), c.String(),
			stats.Percent(r.CausePctCount(c)), stats.Percent(r.CausePctTime(c)))
	}
	fmt.Println(t.String())

	if r.CountByCause[core.CauseTimeoutRetrans] > 0 {
		rt := stats.NewTable("Timeout-retransmission breakdown:", "cause", "# %", "time %")
		for _, c := range []core.RetransCause{
			core.RetransDouble, core.RetransTail, core.RetransSmallCwnd,
			core.RetransSmallRwnd, core.RetransContinuousLoss,
			core.RetransAckDelayLoss, core.RetransUndetermined,
		} {
			rt.AddRow(c.String(),
				stats.Percent(r.RetransPctCount(c)), stats.Percent(r.RetransPctTime(c)))
		}
		fmt.Println(rt.String())
	}
}

// portUsage documents -port, which tapo and tapo explain share.
const portUsage = "server ports, each optionally naming its service: 80 or 80=web-search,8080=cloud-storage"

// checkTau exits with status 2 unless tau is in (0, 1000]: below, the
// analyzer would default it; above, τ·SRTT could overflow a Duration.
func checkTau(tau float64) {
	if !(tau > 0 && tau <= 1000) {
		fmt.Fprintf(os.Stderr, "tapo: -tau %v: want a value in (0, 1000]\n", tau)
		os.Exit(2)
	}
}

// parsePorts reads a -port value, exiting with status 2 when it is
// malformed.
func parsePorts(s string) []trace.PortService {
	ports, err := trace.ParsePorts(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapo: -port:", err)
		os.Exit(2)
	}
	return ports
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tapo:", err)
	os.Exit(1)
}
