package trace

import (
	"fmt"
	"io"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
)

// RecordEvent is one packet record tagged with its flow identity —
// the unit streaming consumers (the live monitor) ingest. Unlike a
// Flow, a stream of RecordEvents needs no per-flow record retention:
// the producer's memory is bounded by connection count, not trace
// length.
type RecordEvent struct {
	// FlowID identifies the connection; when a client endpoint
	// reconnects after its connection completed, the new connection's
	// ID carries a "#n" generation suffix.
	FlowID  string
	Service string
	// MSS is the flow's negotiated MSS as known so far (0 = unknown;
	// consumers default to 1460).
	MSS int
	// InitRwnd is the client's SYN-advertised window when this event
	// carries the SYN (0 otherwise).
	InitRwnd int
	// Rec is the packet record itself.
	Rec Record
	// FlowDone marks the record that completes the connection (an RST,
	// or the final teardown ACK after FINs both ways), letting
	// consumers evict the flow's state immediately.
	FlowDone bool
}

// recFlow is the per-connection state the record streamer keeps: the
// identity and teardown progress, never the records.
type recFlow struct {
	id  string
	mss int
	td  teardown
}

// ImportPcapRecords reads a capture and hands every TCP record to h
// in capture order, tagged with its connection identity. Memory is
// bounded by the number of concurrently open connections (a few
// dozen bytes each), not by trace length. It is the one capture
// reader and flow demux: the live monitor replays captures through
// it, and ImportPcap and ImportPcapStream assemble its events into
// flows.
//
// Each event's Service is the one cfg.Ports maps the flow's server
// port to. A client endpoint reappearing after its connection
// completed starts a new flow with a "#n" generation suffix.
func ImportPcapRecords(r io.Reader, cfg ImportConfig, h func(RecordEvent) error) error {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return err
	}
	ports := cfg.Ports
	if len(ports) == 0 {
		ports = defaultPorts
	}
	raw := pr.Header().LinkType == pcap.LinkTypeRaw
	flows := map[flowKey]*recFlow{}
	gens := map[flowKey]int{} // completed generations per key
	var fr packet.Frame       // the decode frame every record reuses
	var base timeBase
	for {
		pkt, err := pr.ReadPacket()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		dr, ok := decodeTCP(&fr, pkt.Data, raw, ports)
		if !ok {
			continue
		}
		st, ok := flows[dr.key]
		if !ok {
			st = &recFlow{id: flowID(dr.key, dr.ipv6, len(ports) > 1, gens[dr.key]), mss: 1460}
			flows[dr.key] = st
		}
		if dr.mss > 0 {
			st.mss = dr.mss
		}
		ev := RecordEvent{
			FlowID:  st.id,
			Service: dr.svc,
			MSS:     st.mss,
			Rec: Record{
				T:   base.rel(pkt.Timestamp),
				Dir: dr.dir,
				Seg: dr.seg,
			},
		}
		if dr.dir == DirIn && dr.seg.Flags.Has(synFlag) {
			ev.InitRwnd = dr.seg.Wnd
		}
		if st.td.observe(dr.dir, &dr.seg) {
			ev.FlowDone = true
			delete(flows, dr.key)
			gens[dr.key]++
		}
		if err := h(ev); err != nil {
			return err
		}
	}
}

// flowID renders a connection key as a flow identifier: the client
// endpoint, then "@" and the server port when the capture is read
// with several, then the generation ordinal when the endpoint has
// completed gen earlier connections to that port.
func flowID(k flowKey, ipv6, withPort bool, gen int) string {
	var id string
	if ipv6 {
		id = fmt.Sprintf("[%x]:%d", k.ip, k.port)
	} else {
		id = fmt.Sprintf("%d.%d.%d.%d:%d", k.ip[0], k.ip[1], k.ip[2], k.ip[3], k.port)
	}
	if withPort {
		id = fmt.Sprintf("%s@%d", id, k.sport)
	}
	if gen > 0 {
		id = fmt.Sprintf("%s#%d", id, gen+1)
	}
	return id
}

// timeBase anchors capture timestamps to the first TCP record.
type timeBase struct {
	base time.Time
	have bool
}

func (tb *timeBase) rel(t time.Time) sim.Time {
	if !tb.have {
		tb.base = t
		tb.have = true
	}
	return sim.Time(t.Sub(tb.base))
}
