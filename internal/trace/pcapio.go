package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
)

const synFlag = packet.FlagSYN

// ExportConfig controls pcap generation.
type ExportConfig struct {
	// ServerIP/ServerPort are the server endpoint written into every
	// frame. Defaults: 10.0.0.1:80.
	ServerIP   [4]byte
	ServerPort uint16
	// BaseTime anchors sim time 0 to an absolute capture time.
	// Defaults to 2014-12-22 18:00 UTC (the dataset's first day).
	BaseTime time.Time
	// Snaplen caps captured bytes per frame (default: full frames).
	Snaplen uint32
}

func (c *ExportConfig) defaults() {
	if c.ServerIP == ([4]byte{}) {
		c.ServerIP = [4]byte{10, 0, 0, 1}
	}
	if c.ServerPort == 0 {
		c.ServerPort = 80
	}
	if c.BaseTime.IsZero() {
		c.BaseTime = time.Date(2014, 12, 22, 18, 0, 0, 0, time.UTC)
	}
}

// clientAddr derives a distinct client endpoint for flow index i.
func clientAddr(i int) ([4]byte, uint16) {
	ip := [4]byte{100, byte(64 + (i>>14)&0x3f), byte((i >> 7) & 0x7f), byte(1 + i&0x7f)}
	port := uint16(10000 + i%50000)
	return ip, port
}

// tsTicks converts virtual time to RFC 7323 millisecond ticks,
// offset so tick 0 is distinguishable from "no timestamp".
func tsTicks(t sim.Time) uint32 {
	if t == 0 {
		return 0
	}
	return uint32(time.Duration(t)/time.Millisecond) + 1
}

func ticksToTime(ticks uint32) sim.Time {
	if ticks == 0 {
		return 0
	}
	return sim.Time(time.Duration(ticks-1) * time.Millisecond)
}

// ExportPcap writes flows as one Ethernet/IPv4/TCP capture. Payloads
// are zero-filled to the recorded lengths, so the file opens in
// tcpdump/tshark with correct sequence analysis.
func ExportPcap(w io.Writer, flows []*Flow, cfg ExportConfig) error {
	cfg.defaults()
	hdr := pcap.Header{LinkType: pcap.LinkTypeEthernet, Snaplen: cfg.Snaplen, Nanosecond: true}
	pw, err := pcap.NewWriterHeader(w, hdr)
	if err != nil {
		return err
	}
	serverMAC := packet.MAC{0x02, 0, 0, 0, 0, 1}
	clientMAC := packet.MAC{0x02, 0, 0, 0, 0, 2}

	// Merge all records into one timeline for a realistic capture.
	type item struct {
		t    sim.Time
		flow int
		rec  *Record
	}
	var items []item
	for fi, f := range flows {
		for ri := range f.Records {
			items = append(items, item{f.Records[ri].T, fi, &f.Records[ri]})
		}
	}
	// Stable sort by time (preserves intra-flow order).
	sort.SliceStable(items, func(i, j int) bool { return items[i].t < items[j].t })

	var ipID uint16
	for _, it := range items {
		f := flows[it.flow]
		cip, cport := clientAddr(it.flow)
		r := it.rec
		tcp := packet.TCPHeader{
			Seq:    r.Seg.Seq,
			Ack:    r.Seg.Ack,
			Flags:  r.Seg.Flags,
			Window: clampU16(r.Seg.Wnd),
		}
		if r.Seg.TSVal != 0 || r.Seg.TSEcr != 0 {
			tcp.Options.HasTimestamps = true
			tcp.Options.TSVal = tsTicks(r.Seg.TSVal)
			tcp.Options.TSEcr = tsTicks(r.Seg.TSEcr)
		}
		// Reset before copying: tcp is rebuilt per record today, but
		// a recycled header with a stale block would silently corrupt
		// the importer's scoreboard walk, so make the contract
		// explicit. Inline storage means this is a plain value copy.
		tcp.Options.SACK.Reset()
		tcp.Options.SACK = r.Seg.SACK
		if r.Seg.Flags.Has(packet.FlagSYN) {
			tcp.Options.HasMSS = true
			tcp.Options.MSS = uint16(mssOf(f))
			tcp.Options.SACKPermitted = true
		}
		var eth packet.Ethernet
		var ip packet.IPv4
		ip.TTL = 64
		ipID++
		ip.ID = ipID
		if r.Dir == DirOut {
			eth.Src, eth.Dst = serverMAC, clientMAC
			ip.Src, ip.Dst = cfg.ServerIP, cip
			tcp.SrcPort, tcp.DstPort = cfg.ServerPort, cport
		} else {
			eth.Src, eth.Dst = clientMAC, serverMAC
			ip.Src, ip.Dst = cip, cfg.ServerIP
			tcp.SrcPort, tcp.DstPort = cport, cfg.ServerPort
		}
		payload := make([]byte, r.Seg.Len)
		frame := packet.EncodeTCPv4(&eth, &ip, &tcp, payload)
		err := pw.WritePacket(pcap.Packet{
			Timestamp: cfg.BaseTime.Add(time.Duration(it.t)),
			Data:      frame,
		})
		if err != nil {
			return fmt.Errorf("exporting flow %s: %w", f.ID, err)
		}
	}
	return nil
}

func mssOf(f *Flow) int {
	if f.MSS > 0 {
		return f.MSS
	}
	return 1460
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v)
}

// ImportConfig controls pcap parsing.
type ImportConfig struct {
	// ServerPort identifies the server side of each connection
	// (default 80). Frames with this source port are DirOut.
	ServerPort uint16
}

// flowKey identifies a connection by the client endpoint.
type flowKey struct {
	ip   [16]byte // IPv4 addresses mapped into the low 4 bytes
	port uint16
}

// decodedRecord is one parsed TCP packet attributed to a connection.
type decodedRecord struct {
	key  flowKey
	dir  Dir
	seg  Segment
	ipv6 bool
	mss  int // from SYN options; 0 when absent
}

// decodeTCP parses one captured frame down to a keyed TCP record from
// the server's vantage point, decoding into fr, which the caller owns
// and reuses across records.
func decodeTCP(fr *packet.Frame, data []byte, raw bool, serverPort uint16) (decodedRecord, bool) {
	var dr decodedRecord
	if !decodeFrame(fr, data, raw) {
		return dr, false
	}
	var srcIP, dstIP [16]byte
	if fr.IsIPv6 {
		srcIP, dstIP = fr.IP6.Src, fr.IP6.Dst
	} else {
		copy(srcIP[:4], fr.IP4.Src[:])
		copy(dstIP[:4], fr.IP4.Dst[:])
	}
	switch {
	case fr.TCP.SrcPort == serverPort:
		dr.dir = DirOut
		dr.key = flowKey{dstIP, fr.TCP.DstPort}
	case fr.TCP.DstPort == serverPort:
		dr.dir = DirIn
		dr.key = flowKey{srcIP, fr.TCP.SrcPort}
	default:
		return dr, false
	}
	dr.ipv6 = fr.IsIPv6
	// Payload length from the IP length fields (snaplen-proof).
	var segLen int
	if fr.IsIPv6 {
		segLen = int(fr.IP6.PayloadLen) - fr.TCP.HeaderLen()
	} else {
		segLen = int(fr.IP4.TotalLen) - fr.IP4.HeaderLen() - fr.TCP.HeaderLen()
	}
	if segLen < 0 {
		segLen = len(fr.Payload)
	}
	dr.seg = Segment{
		Flags: fr.TCP.Flags,
		Seq:   fr.TCP.Seq,
		Ack:   fr.TCP.Ack,
		Len:   segLen,
		Wnd:   int(fr.TCP.Window),
	}
	if fr.TCP.Options.HasTimestamps {
		dr.seg.TSVal = ticksToTime(fr.TCP.Options.TSVal)
		dr.seg.TSEcr = ticksToTime(fr.TCP.Options.TSEcr)
	}
	// Value copy — dr.seg was freshly assigned above, and inline
	// storage guarantees the blocks never alias the decode frame,
	// even when fr is recycled across packets.
	dr.seg.SACK = fr.TCP.Options.SACK
	if fr.TCP.Options.HasMSS && fr.TCP.Options.MSS > 0 {
		dr.mss = int(fr.TCP.Options.MSS)
	}
	return dr, true
}

// decodeFrame parses one captured record down to TCP into fr — an
// Ethernet frame, or a bare IP packet on a raw-IP capture — and
// reports whether fr now holds a TCP segment.
func decodeFrame(fr *packet.Frame, data []byte, rawIP bool) bool {
	var err error
	if rawIP {
		err = fr.DecodeIP(data)
	} else {
		err = fr.Decode(data)
	}
	return err == nil && fr.HasTCP
}

// teardown tracks connection-close progress and reports whether the
// segment at hand completes the connection. An RST closes it
// outright; after FINs in both directions, the next pure ACK (the
// teardown's final acknowledgment) closes it. A FIN-only teardown
// with no trailing ACK — the simulator's shape — never reports
// completion and is handled at EOF by the callers.
type teardown struct {
	finOut, finIn bool
}

func (td *teardown) observe(dir Dir, seg *Segment) (done bool) {
	switch {
	case seg.Flags.Has(packet.FlagRST):
		return true
	case seg.Flags.Has(packet.FlagFIN):
		if dir == DirOut {
			td.finOut = true
		} else {
			td.finIn = true
		}
	case td.finOut && td.finIn && seg.Len == 0 && !seg.Flags.Has(packet.FlagSYN):
		return true
	}
	return false
}

// assemble groups ImportPcapRecords' events into flows by FlowID. A
// flow takes its last event's MSS and its first non-zero InitRwnd.
// seen, when non-nil, gets each flow at its first event; done gets
// each flow at its FlowDone event and, at EOF, the flows still open
// in first-seen order. Only open flows are held.
func assemble(r io.Reader, cfg ImportConfig, seen func(*Flow), done func(*Flow) error) error {
	open := map[string]*Flow{}
	var order []string // flow IDs in first-seen order
	err := ImportPcapRecords(r, cfg, func(ev RecordEvent) error {
		f := open[ev.FlowID]
		if f == nil {
			f = &Flow{ID: ev.FlowID, Service: ev.Service, Done: true}
			open[ev.FlowID] = f
			order = append(order, ev.FlowID)
			if seen != nil {
				seen(f)
			}
		}
		f.MSS = ev.MSS
		if f.InitRwnd == 0 {
			f.InitRwnd = ev.InitRwnd
		}
		f.Records = append(f.Records, ev.Rec)
		if !ev.FlowDone {
			return nil
		}
		delete(open, ev.FlowID)
		return done(f)
	})
	if err != nil {
		return err
	}
	for _, id := range order {
		if f := open[id]; f != nil {
			if err := done(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// ImportPcapStream reads a capture and hands each reassembled flow to
// h as soon as it completes: on a RST, after a full FIN handshake, or
// — for flows still open when the capture ends — at EOF in
// first-seen order. This is the streaming entry point the analysis
// pipeline demuxes from; it holds only open flows in memory instead
// of the whole capture. Flows split at reconnects exactly as in
// ImportPcapRecords.
func ImportPcapStream(r io.Reader, cfg ImportConfig, h func(*Flow) error) error {
	return assemble(r, cfg, nil, h)
}

// ImportPcap reads a capture and reassembles per-connection flows
// from the server's vantage point. Ethernet and raw-IP link types are
// supported; IPv4 and IPv6 frames both decode. Non-TCP frames are
// skipped. Flows are returned in first-seen order and split at
// reconnects exactly as in ImportPcapRecords and ImportPcapStream.
func ImportPcap(r io.Reader, cfg ImportConfig) ([]*Flow, error) {
	var flows []*Flow
	err := assemble(r, cfg, func(f *Flow) { flows = append(flows, f) }, func(*Flow) error { return nil })
	if err != nil {
		return nil, err
	}
	return flows, nil
}
