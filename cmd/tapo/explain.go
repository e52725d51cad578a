package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"tcpstall/internal/core"
	"tcpstall/internal/explain"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/trace"
)

// explainMain is the `tapo explain` subcommand: it analyzes a capture
// with the flight recorder attached and prints, for each stall, the
// decision path that produced the verdict plus the packet window
// around the silent gap.
func explainMain(args []string) {
	fs := flag.NewFlagSet("tapo explain", flag.ExitOnError)
	port := fs.String("port", "80", portUsage)
	flowID := fs.String("flow", "", "only flows whose ID contains this substring")
	stallID := fs.Int("stall", -1, "only the stall with this ID (requires -flow)")
	winK := fs.Int("k", 0, "packet-window radius around each gap (0: recorder default)")
	traceOut := fs.String("trace-out", "", "write time/sequence samples + verdicts as JSONL to this file")
	tau := fs.Float64("tau", 2, "stall threshold multiplier in min(tau*SRTT, RTO)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tapo explain [-flow ID] [-stall N] [-k N] [-trace-out f.jsonl] capture.pcap")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	ports := parsePorts(*port)
	checkTau(*tau)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	var tw *explain.TraceWriter
	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		tw = explain.NewTraceWriter(out)
	}

	// With -trace-out each analyzed record becomes a pkt line as it
	// is read; next holds the index of each open flow's next record.
	next := map[string]int{}
	source := func(ev *trace.RecordEvent) (bool, error) {
		if !strings.Contains(ev.FlowID, *flowID) {
			return false, nil
		}
		if tw == nil {
			return true, nil
		}
		idx := next[ev.FlowID]
		next[ev.FlowID] = idx + 1
		if ev.FlowDone {
			delete(next, ev.FlowID)
		}
		return true, tw.Pkt(ev.FlowID, idx, &ev.Rec)
	}
	// Unfiltered runs show only flows that stalled; recs keeps the
	// recorders of the flows shown.
	recs := map[string]*flight.Recorder{}
	keep := func(a *core.FlowAnalysis, rec *flight.Recorder) bool {
		if *flowID == "" && len(a.Stalls) == 0 {
			return false
		}
		recs[a.FlowID] = rec
		return true
	}
	lcfg := live.Config{Analysis: cfg, Flight: &flight.Config{WindowK: *winK}}
	analyses, err := analyzeCapture(bufio.NewReaderSize(in, readBuf), trace.ImportConfig{Ports: ports}, lcfg, source, keep)
	if err != nil {
		fatal(err)
	}

	for i, a := range analyses {
		if i > 0 {
			fmt.Println()
		}
		if *stallID >= 0 {
			printOneStall(a, recs[a.FlowID], *stallID)
		} else {
			explain.Flow(os.Stdout, a, recs[a.FlowID])
		}
		if tw != nil {
			if err := tw.Stalls(a, recs[a.FlowID]); err != nil {
				fatal(err)
			}
		}
	}
	if len(analyses) == 0 {
		fmt.Fprintf(os.Stderr, "tapo: nothing to explain (-flow %q)\n", *flowID)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "tapo: wrote trace samples to", *traceOut)
	}
}

func printOneStall(a *core.FlowAnalysis, rec *flight.Recorder, id int) {
	for i := range a.Stalls {
		if st := &a.Stalls[i]; st.ID == id {
			fmt.Printf("flow %s\n", a.FlowID)
			explain.Stall(os.Stdout, st, rec.Evidence(id))
			return
		}
	}
	fmt.Printf("flow %s has no stall #%d (%d stalls total)\n", a.FlowID, id, len(a.Stalls))
}
