// Package trace defines the server-side packet record format the
// TAPO analysis consumes, collects records from simulated
// connections, and converts flows to and from real pcap files so the
// classifier runs identically on synthetic and captured traffic.
package trace

import (
	"fmt"

	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
)

// Record is one packet as seen at the server NIC.
type Record struct {
	T   sim.Time
	Dir Dir
	Seg Segment
}

// Flow is one TCP connection's server-side record sequence plus
// metadata the workload layer attaches.
type Flow struct {
	// ID identifies the flow in reports.
	ID string
	// Service labels the generating service ("cloud-storage", …).
	Service string
	// Records in capture order.
	Records []Record
	// InitRwnd is the client's SYN-advertised window (bytes); 0 when
	// no SYN was captured.
	InitRwnd int
	// Done reports whether the transfer completed (simulator ground
	// truth; true for imported pcaps).
	Done bool
	// Latency is the simulator-measured flow latency (ground truth
	// for Table 8); zero for imported pcaps.
	Latency sim.Duration
	// MSS for the flow (default 1460).
	MSS int
}

// Duration reports last-record time minus first-record time.
func (f *Flow) Duration() sim.Duration {
	if len(f.Records) < 2 {
		return 0
	}
	return f.Records[len(f.Records)-1].T.Sub(f.Records[0].T)
}

// DataBytes sums outgoing payload bytes excluding retransmissions
// (max contiguous stream coverage). Sequence numbers are unwrapped
// onto 64-bit offsets so random ISNs and >4 GiB flows measure
// correctly.
func (f *Flow) DataBytes() int64 {
	var u seqspace.Unwrapper
	var maxEnd uint64
	var base uint64
	first := true
	for i := range f.Records {
		r := &f.Records[i]
		if r.Dir != DirOut || r.Seg.Len == 0 {
			continue
		}
		off := u.Unwrap(r.Seg.Seq)
		if first {
			base = off
			maxEnd = off
			first = false
		}
		if end := off + uint64(r.Seg.Len); end > maxEnd {
			maxEnd = end
		}
	}
	if first {
		return 0
	}
	return int64(maxEnd - base)
}

func (f *Flow) String() string {
	return fmt.Sprintf("flow %s (%s): %d records, %d data bytes, %.1fs",
		f.ID, f.Service, len(f.Records), f.DataBytes(), f.Duration().Seconds())
}

// Collector implements tcpsim.TraceSink, accumulating records into a
// Flow.
type Collector struct {
	Flow *Flow
}

// NewCollector builds a collector for a new flow.
func NewCollector(id, service string) *Collector {
	return &Collector{Flow: &Flow{ID: id, Service: service, MSS: 1460}}
}

// Record implements tcpsim.TraceSink.
func (c *Collector) Record(t sim.Time, dir Dir, seg Segment) {
	c.Flow.Records = append(c.Flow.Records, Record{T: t, Dir: dir, Seg: seg})
	if dir == DirIn && seg.Flags.Has(synFlag) && c.Flow.InitRwnd == 0 {
		c.Flow.InitRwnd = seg.Wnd
	}
}
