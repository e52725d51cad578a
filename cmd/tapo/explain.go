package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"tcpstall/internal/core"
	"tcpstall/internal/explain"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
)

// explainMain is the `tapo explain` subcommand: it re-analyzes a
// capture with the flight recorder attached and prints, for each
// stall, the decision path that produced the verdict plus the packet
// window around the silent gap.
func explainMain(args []string) {
	fs := flag.NewFlagSet("tapo explain", flag.ExitOnError)
	port := fs.String("port", "80", portUsage)
	flowID := fs.String("flow", "", "only flows whose ID contains this substring")
	stallID := fs.Int("stall", -1, "only the stall with this ID (requires -flow)")
	winK := fs.Int("k", 0, "packet-window radius around each gap (0: recorder default)")
	traceOut := fs.String("trace-out", "", "write time/sequence samples + verdicts as JSONL to this file")
	tau := fs.Float64("tau", 2, "stall threshold multiplier in min(tau*SRTT, RTO)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tapo explain [-flow ID] [-stall N] [-k N] [-trace-out f.jsonl] capture.pcap")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	logger := newLogger(*logFormat)
	ports := parsePorts(*port)
	checkTau(*tau)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	fcfg := flight.Config{WindowK: *winK}

	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	flows, err := trace.ImportPcap(bufio.NewReaderSize(in, readBuf), trace.ImportConfig{Ports: ports})
	if err != nil {
		fatal(err)
	}

	var out *os.File
	if *traceOut != "" {
		out, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
	}

	shown := 0
	for _, f := range flows {
		if *flowID != "" && !strings.Contains(f.ID, *flowID) {
			continue
		}
		a, rec := core.AnalyzeFlight(f, cfg, fcfg)
		if out != nil {
			if err := explain.WriteTraceJSONL(out, f, a, rec); err != nil {
				fatal(err)
			}
		}
		if len(a.Stalls) == 0 && *flowID == "" {
			continue // unfiltered runs show only flows that stalled
		}
		if shown > 0 {
			fmt.Println()
		}
		if *stallID >= 0 {
			printOneStall(a, rec, *stallID)
		} else {
			explain.Flow(os.Stdout, a, rec)
		}
		shown++
	}
	if shown == 0 {
		logger.Warn("nothing to explain", "flows", len(flows), "flow_filter", *flowID)
	}
	if out != nil {
		logger.Info("wrote trace samples", "path", *traceOut)
	}
}

func printOneStall(a *core.FlowAnalysis, rec *flight.Recorder, id int) {
	for i := range a.Stalls {
		st := &a.Stalls[i]
		if st.ID != id {
			continue
		}
		var ev *flight.Evidence
		if st.Evidence != nil {
			ev = rec.Evidence(st.Evidence.Stall)
		}
		fmt.Printf("flow %s\n", a.FlowID)
		explain.Stall(os.Stdout, st, ev)
		return
	}
	fmt.Printf("flow %s has no stall #%d (%d stalls total)\n", a.FlowID, id, len(a.Stalls))
}

// newLogger builds the process logger; "json" selects machine-
// readable output for log shippers, anything else human text.
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
