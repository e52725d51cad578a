//go:build ignore

// gen_golden regenerates the golden stall traces and their expected
// analyses. Each pcap is a small synthetic capture whose stalls
// exercise one Figure-5 family:
//
//	golden_server.pcap   server family  (data unavailable)
//	golden_client.pcap   client family  (zero window)
//	golden_network.pcap  network family (timeout retransmission)
//
// Run from the repo root:
//
//	go run internal/core/testdata/gen_golden.go
//
// With -search it instead scans seeds for small captures containing
// the wanted causes (used once to pick the seeds below).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

type golden struct {
	name    string
	svc     workload.Service
	seed    int64
	flows   int
	want    core.Cause
	minHits int
	maxPkts int
}

// The seeds were found with -search: the smallest seed whose capture
// stays compact and contains the family's cause at least minHits
// times.
var goldens = []golden{
	{"golden_server", workload.WebSearch(), 2, 4, core.CauseDataUnavailable, 2, 1500},
	{"golden_client", workload.SoftwareDownload(), 2, 3, core.CauseZeroWindow, 1, 8000},
	{"golden_network", workload.CloudStorage(), 10, 1, core.CauseTimeoutRetrans, 2, 2500},
}

func main() {
	search := flag.Bool("search", false, "scan seeds instead of writing goldens")
	dir := flag.String("dir", "internal/core/testdata", "output directory")
	flag.Parse()

	if *search {
		for i := range goldens {
			g := &goldens[i]
			for seed := int64(1); seed < 500; seed++ {
				hits, pkts := analyze(g.svc, seed, g.flows, g.want)
				if hits >= g.minHits && pkts <= g.maxPkts {
					fmt.Printf("%s: seed=%d pkts=%d hits=%d\n", g.name, seed, pkts, hits)
					break
				}
			}
		}
		return
	}

	for _, g := range goldens {
		hits, pkts := analyze(g.svc, g.seed, g.flows, g.want)
		if hits < g.minHits {
			fmt.Fprintf(os.Stderr, "gen_golden: %s seed %d yields %d %v stalls, want >= %d\n",
				g.name, g.seed, hits, g.want, g.minHits)
			os.Exit(1)
		}
		flows := genFlows(g.svc, g.seed, g.flows)

		pf, err := os.Create(fmt.Sprintf("%s/%s.pcap", *dir, g.name))
		must(err)
		// Snaplen 96 keeps every header (Ethernet 14 + IPv4 20 + TCP
		// <= 60) while dropping the zero-filled payloads; the importer
		// takes segment lengths from the IP headers, so analysis is
		// unchanged and the fixtures stay small.
		bw := bufio.NewWriterSize(pf, 1<<20)
		must(trace.ExportPcap(bw, flows, trace.ExportConfig{Snaplen: 96}))
		must(bw.Flush())
		must(pf.Close())

		// Golden JSON is computed from the round-tripped pcap, exactly
		// as the test will, so export/import quantization is baked in.
		imported, err := trace.ImportPcap(mustOpen(fmt.Sprintf("%s/%s.pcap", *dir, g.name)), trace.ImportConfig{})
		must(err)
		var analyses []*core.FlowAnalysis
		for _, f := range imported {
			analyses = append(analyses, core.Analyze(f, core.DefaultConfig()))
		}
		buf, err := core.MarshalAnalyses(analyses)
		must(err)
		must(os.WriteFile(fmt.Sprintf("%s/%s.json", *dir, g.name), buf, 0o644))
		fmt.Printf("%s: %d flows, %d packets, %d %v stalls\n", g.name, len(flows), pkts, hits, g.want)
	}
}

func genFlows(svc workload.Service, seed int64, n int) []*trace.Flow {
	var flows []*trace.Flow
	for _, r := range workload.Generate(svc, seed, workload.GenOptions{Flows: n}) {
		if r.Flow != nil {
			flows = append(flows, r.Flow)
		}
	}
	return flows
}

func analyze(svc workload.Service, seed int64, n int, want core.Cause) (hits, pkts int) {
	for _, f := range genFlows(svc, seed, n) {
		pkts += len(f.Records)
		a := core.Analyze(f, core.DefaultConfig())
		for _, s := range a.Stalls {
			if s.Cause == want {
				hits++
			}
		}
	}
	return hits, pkts
}

func mustOpen(path string) *os.File {
	f, err := os.Open(path)
	must(err)
	return f
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen_golden:", err)
		os.Exit(1)
	}
}
