// Pcapinspect: write a synthetic capture to a real .pcap file, read
// it back through the packet and pcap codecs, and inspect per-flow
// stall context — the full offline path a real capture would follow.
//
//	go run ./examples/pcapinspect
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

func main() {
	path := filepath.Join(os.TempDir(), "pcapinspect-demo.pcap")

	// 1. Synthesize a small cloud-storage workload and export it as
	//    a standard pcap (openable in tcpdump/tshark).
	results := workload.Generate(workload.CloudStorage(), 5, workload.GenOptions{Flows: 12})
	var flows []*trace.Flow
	for _, r := range results {
		if r.Flow != nil {
			flows = append(flows, r.Flow)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := trace.ExportPcap(f, flows, trace.ExportConfig{}); err != nil {
		panic(err)
	}
	f.Close()
	st, _ := os.Stat(path)
	fmt.Printf("wrote %d flows to %s (%d bytes)\n", len(flows), path, st.Size())

	// 2. Read it back: parse Ethernet/IPv4/TCP frames, reassemble
	//    flows from the server's vantage point.
	in, err := os.Open(path)
	if err != nil {
		panic(err)
	}
	defer in.Close()
	imported, err := trace.ImportPcap(in, trace.ImportConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("re-imported %d flows\n\n", len(imported))

	// 3. Analyze each flow and show its stall context.
	for _, fl := range imported {
		a := core.Analyze(fl, core.DefaultConfig())
		fmt.Printf("flow %-22s %7.1fKB %4d pkts  rtt %3.0fms  stalls %d (%.0f%% stalled)\n",
			a.FlowID, float64(a.DataBytes)/1000, len(fl.Records),
			a.AvgRTT(), len(a.Stalls), 100*a.StalledFraction())
		for _, s := range a.Stalls {
			cause := s.Cause.String()
			if s.Cause == core.CauseTimeoutRetrans {
				cause += "/" + s.RetransCause.String()
			}
			fmt.Printf("    %8.2fs %6dms %-28s in_flight=%d rwnd=%d\n",
				s.Start.Seconds(), s.Duration.Milliseconds(), cause, s.InFlight, s.Rwnd)
		}
	}
}
