package trace

import (
	"io"
	"time"

	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
)

// RecordEvent is one packet record tagged with its flow identity —
// the unit streaming consumers (the live monitor) ingest. Unlike a
// Flow, a stream of RecordEvents needs no per-flow record retention:
// the producer's memory is bounded by connection count, not trace
// length.
type RecordEvent struct {
	// FlowID identifies the connection; for pcap sources it carries
	// the same "#n" generation suffix the flow importer uses when a
	// client endpoint reconnects.
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

// RecordSource streams tagged records, calling emit once per record
// in capture order. An emit error aborts the source, which must
// return it. It mirrors pipeline.Source one layer down: flows are the
// batch unit, records are the live unit.
type RecordSource func(emit func(RecordEvent) error) error

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
// dozen bytes each), not by trace length — this is the streaming
// source the live monitor replays captures through.
//
// Like ImportPcapStream, a client endpoint reappearing after its
// connection completed starts a new flow with a "#n" generation
// suffix.
func ImportPcapRecords(r io.Reader, cfg ImportConfig, h func(RecordEvent) error) error {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return err
	}
	if cfg.ServerPort == 0 {
		cfg.ServerPort = 80
	}
	raw := pr.Header().LinkType == pcap.LinkTypeRaw
	flows := map[flowKey]*recFlow{}
	gens := map[flowKey]int{}
	d := demux{gens: gens} // for flowID rendering and its decode frame only
	var base timeBase
	for {
		pkt, err := pr.ReadPacket()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		dr, ok := decodeTCP(&d.fr, pkt.Data, raw, cfg.ServerPort)
		if !ok {
			continue
		}
		st, ok := flows[dr.key]
		if !ok {
			st = &recFlow{id: d.flowID(dr.key, dr.ipv6), mss: 1460}
			flows[dr.key] = st
		}
		if dr.mss > 0 {
			st.mss = dr.mss
		}
		ev := RecordEvent{
			FlowID:  st.id,
			Service: "pcap",
			MSS:     st.mss,
			Rec: Record{
				T:   base.rel(pkt.Timestamp),
				Dir: dr.dir,
				Seg: dr.seg,
			},
		}
		if dr.dir == tcpsim.DirIn && dr.seg.Flags.Has(synFlag) {
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

// timeBase anchors capture timestamps to the first packet, like the
// flow demux does.
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
