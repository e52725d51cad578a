// Command tracegen synthesizes service workloads and writes them as
// standard .pcap captures, ready for tcpdump/tshark or for analysis
// with the tapo command.
//
// Usage:
//
//	tracegen -service web-search -flows 100 -o trace.pcap
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

func main() {
	service := flag.String("service", "web-search",
		"service model: cloud-storage | software-download | web-search")
	flows := flag.Int("flows", 50, "number of flows to generate")
	seed := flag.Int64("seed", 1, "RNG seed")
	out := flag.String("o", "trace.pcap", "output pcap path")
	flag.Parse()

	var svc workload.Service
	switch *service {
	case "cloud-storage":
		svc = workload.CloudStorage()
	case "software-download":
		svc = workload.SoftwareDownload()
	case "web-search":
		svc = workload.WebSearch()
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown service %q\n", *service)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "generating %d %s flows (seed %d)...\n", *flows, svc.Name, *seed)
	results := workload.Generate(svc, *seed, workload.GenOptions{Flows: *flows})
	var fl []*trace.Flow
	var pkts int
	for _, r := range results {
		if r.Flow != nil {
			fl = append(fl, r.Flow)
			pkts += len(r.Flow.Records)
		}
	}

	if err := writeCapture(*out, fl); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d flows (%d packets) to %s\n", len(fl), pkts, *out)
}

// writeCapture exports flows to path through a 1 MiB buffer, so the
// writer's two writes per record do not each become a system call.
func writeCapture(path string, flows []*trace.Flow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = trace.ExportPcap(bw, flows, trace.ExportConfig{})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
