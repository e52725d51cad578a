package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/pipeline"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

// isolated holds each layer's cost measured on its own, over the same
// input the chain ran, on an otherwise idle process.
type isolated struct {
	decodeNS, decodeAllocs          float64 // packet: Frame.Decode per frame
	ceilingRate                     float64 // pcap+packet+trace: import from the file to a no-op, records/s
	importAllocs, importBytes       float64 // the same pass, heap allocations per record
	observeNS                       float64 // triage: Flow.Observe per record
	feedNS, feedAllocs, flightRatio float64 // core: Incremental.Feed+Flush; and the same with a recorder, over without
	stalls                          int     // core: stalls the isolated analyzers found
	pipelineRate                    float64 // pipeline.Run over the same input, records/s
}

// measure times fn and counts the heap allocations it makes.
func measure(fn func()) (elapsed time.Duration, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// isolate measures the layers one at a time. The capture workloads
// work from the file; fleet_push has no file, so its pcap, packet and
// trace rows stay zero and the rest run over its reference flows.
func isolate(in *input) (isolated, error) {
	var iso isolated
	n := float64(in.records)
	flows := in.refFlows

	if in.path != "" {
		var frames []pcap.Packet
		err := withCapture(in.path, func(f *os.File) error {
			pr, err := pcap.NewReader(bufio.NewReader(f))
			if err == nil {
				frames, err = pr.ReadAll()
			}
			return err
		})
		if err != nil {
			return iso, err
		}
		var fr packet.Frame
		bad := 0
		el, mallocs, _ := measure(func() {
			for i := range frames {
				if fr.Decode(frames[i].Data) != nil {
					bad++
				}
			}
		})
		iso.decodeNS = float64(el) / float64(len(frames))
		iso.decodeAllocs = float64(mallocs) / float64(len(frames))
		if bad > 0 {
			return iso, fmt.Errorf("%d of %d frames failed to decode", bad, len(frames))
		}
		frames = nil

		// The ceiling: everything up to the intake call, with nothing
		// behind it — read from the *os.File exactly as the chain does.
		// Best of three passes: a ceiling wants the box at its quietest.
		for pass := 0; pass < 3; pass++ {
			err = withCapture(in.path, func(f *os.File) error {
				var ierr error
				el, mallocs, bytes := measure(func() {
					ierr = trace.ImportPcapRecords(f, trace.ImportConfig{}, func(trace.RecordEvent) error { return nil })
				})
				iso.ceilingRate = max(iso.ceilingRate, n/el.Seconds())
				iso.importAllocs = float64(mallocs) / n
				iso.importBytes = float64(bytes) / n
				return ierr
			})
			if err != nil {
				return iso, err
			}
		}

		err = withCapture(in.path, func(f *os.File) error {
			var perr error
			el, _, _ := measure(func() {
				_, perr = pipeline.Run(pipeline.FromPcap(f, trace.ImportConfig{}), pipeline.Options{})
			})
			iso.pipelineRate = n / el.Seconds()
			return perr
		})
		if err != nil {
			return iso, err
		}

		err = withCapture(in.path, func(f *os.File) error {
			var ierr error
			flows, ierr = trace.ImportPcap(bufio.NewReader(f), trace.ImportConfig{})
			return ierr
		})
		if err != nil {
			return iso, err
		}
	} else {
		var perr error
		el, _, _ := measure(func() {
			_, perr = pipeline.Run(pipeline.FromFlows(flows), pipeline.Options{})
		})
		if perr != nil {
			return iso, perr
		}
		iso.pipelineRate = n / el.Seconds()
	}

	el, _, _ := measure(func() {
		for _, f := range flows {
			tf := triage.NewFlow(triage.Config{})
			for i := range f.Records {
				tf.Observe(&f.Records[i])
			}
		}
	})
	iso.observeNS = float64(el) / n

	feed := func(withFlight bool) func() {
		return func() {
			iso.stalls = 0
			for _, f := range flows {
				inc := core.NewIncremental(core.Config{})
				inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
				if withFlight {
					inc.SetRecorder(flight.NewRecorder(flight.Config{}))
				}
				for i := range f.Records {
					inc.Feed(&f.Records[i])
				}
				iso.stalls += len(inc.Flush().Stalls)
			}
		}
	}
	el, mallocs, _ := measure(feed(false))
	iso.feedNS = float64(el) / n
	iso.feedAllocs = float64(mallocs) / n
	elFlight, _, _ := measure(feed(true))
	iso.flightRatio = float64(elFlight) / float64(el)
	return iso, nil
}
