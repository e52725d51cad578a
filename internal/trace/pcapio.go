package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
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
// are zero-filled to the recorded lengths and cut, like the headers,
// at cfg.Snaplen, so the file opens in tcpdump/tshark with correct
// sequence analysis.
func ExportPcap(w io.Writer, flows []*Flow, cfg ExportConfig) error {
	// Merge all records into one timeline for a realistic capture,
	// ordered by time, then flow, then position in the flow.
	m := newMerge(flows)
	return exportOrdered(w, flows, cfg, m.next)
}

// exportOrdered writes the records next yields, as flow and record
// indices, until it reports false.
func exportOrdered(w io.Writer, flows []*Flow, cfg ExportConfig, next func() (flow, rec int, ok bool)) error {
	cfg.defaults()
	hdr := pcap.Header{LinkType: pcap.LinkTypeEthernet, Snaplen: cfg.Snaplen, Nanosecond: true}
	pw, err := pcap.NewWriterHeader(w, hdr)
	if err != nil {
		return err
	}
	snaplen := int(cmp.Or(cfg.Snaplen, pcap.DefaultSnaplen))
	serverMAC := packet.MAC{0x02, 0, 0, 0, 0, 1}
	clientMAC := packet.MAC{0x02, 0, 0, 0, 0, 2}

	eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: 64, Protocol: packet.IPProtoTCP}
	var frame []byte // reused by every record
	for {
		fi, ri, ok := next()
		if !ok {
			return nil
		}
		f := flows[fi]
		cip, cport := clientAddr(fi)
		r := &f.Records[ri]
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
		ip.ID++
		if r.Dir == DirOut {
			eth.Src, eth.Dst = serverMAC, clientMAC
			ip.Src, ip.Dst = cfg.ServerIP, cip
			tcp.SrcPort, tcp.DstPort = cfg.ServerPort, cport
		} else {
			eth.Src, eth.Dst = clientMAC, serverMAC
			ip.Src, ip.Dst = cip, cfg.ServerIP
			tcp.SrcPort, tcp.DstPort = cport, cfg.ServerPort
		}
		segLen := tcp.HeaderLen() + r.Seg.Len
		frame = eth.AppendTo(frame[:0])
		frame = ip.AppendTo(frame, segLen)
		// The payload is all zeros, which add nothing to the
		// ones'-complement sum: the header summed under the full
		// segment length is the whole segment's checksum. Zeros are
		// then appended only as far as the snap length keeps them.
		frame = tcp.AppendTo(frame, nil, packet.V4Context(ip.Src, ip.Dst, segLen))
		origLen := len(frame) + r.Seg.Len
		if keep := min(origLen, snaplen); keep > len(frame) {
			frame = append(frame, make([]byte, keep-len(frame))...)
		}
		err := pw.WritePacket(pcap.Packet{
			Timestamp: cfg.BaseTime.Add(time.Duration(r.T)),
			Data:      frame,
			OrigLen:   origLen,
		})
		if err != nil {
			return fmt.Errorf("exporting flow %s: %w", f.ID, err)
		}
	}
}

// merge yields the records of several flows in (time, flow, position)
// order. Each flow's records are a run already in time order, or
// stable-sorted into one, and a heap keyed by (time, flow) holds each
// unfinished run's next record: n records over k flows cost
// O(n log k), against O(n log n) for sorting them all.
type merge struct {
	flows []*Flow
	heap  []mergeRun
}

// mergeRun is one flow's place in the merge.
type mergeRun struct {
	t     sim.Time // time of the next record
	flow  int
	next  int   // next position in order, or in the records when order is nil
	order []int // record indices stable-sorted by time; nil when the flow's times never go backward
}

func newMerge(flows []*Flow) merge {
	m := merge{flows: flows, heap: make([]mergeRun, 0, len(flows))}
	for fi, f := range flows {
		recs := f.Records
		if len(recs) == 0 {
			continue
		}
		run := mergeRun{flow: fi}
		if !timeOrdered(recs) {
			run.order = make([]int, len(recs))
			for i := range run.order {
				run.order[i] = i
			}
			slices.SortStableFunc(run.order, func(a, b int) int { return cmp.Compare(recs[a].T, recs[b].T) })
		}
		run.t = recs[run.rec(0)].T
		m.heap = append(m.heap, run)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// timeOrdered reports whether the records' times never go backward.
func timeOrdered(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].T < recs[i-1].T {
			return false
		}
	}
	return true
}

// next returns the flow and record index of the earliest remaining
// record and advances past it; ok is false once every record is out.
func (m *merge) next() (flow, rec int, ok bool) {
	if len(m.heap) == 0 {
		return 0, 0, false
	}
	run := &m.heap[0]
	flow, rec = run.flow, run.rec(run.next)
	run.next++
	if recs := m.flows[flow].Records; run.next < len(recs) {
		run.t = recs[run.rec(run.next)].T
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 0 {
		m.down(0)
	}
	return flow, rec, true
}

func (m *merge) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// rec is the index of the record at position i of the run.
func (r *mergeRun) rec(i int) int {
	if r.order != nil {
		return r.order[i]
	}
	return i
}

func (r *mergeRun) before(o *mergeRun) bool {
	return r.t < o.t || r.t == o.t && r.flow < o.flow
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
	// Ports lists the server ports and the service each one's flows
	// are labelled with. Frames from a listed port are DirOut, frames
	// to one DirIn, and any other frame is skipped. Empty means port
	// 80, service "pcap".
	Ports []PortService
}

// PortService names the service behind one server TCP port.
type PortService struct {
	Port    uint16
	Service string
}

// defaultPorts is what an empty ImportConfig.Ports means.
var defaultPorts = []PortService{{Port: 80, Service: "pcap"}}

// ParsePorts reads a port map: comma-separated entries, each a port
// ("80"), whose flows are labelled "pcap", or port=service
// ("80=web-search,8080=cloud-storage"). Ports run from 1 to 65535 and
// appear once; a service name may not be empty.
func ParsePorts(s string) ([]PortService, error) {
	var ports []PortService
	for _, entry := range strings.Split(s, ",") {
		num, svc, named := strings.Cut(entry, "=")
		p, err := strconv.ParseUint(num, 10, 16)
		switch {
		case err != nil || p == 0:
			return nil, fmt.Errorf("port map entry %q: port must be a number from 1 to 65535", entry)
		case named && svc == "":
			return nil, fmt.Errorf("port map entry %q: empty service name", entry)
		case !named:
			svc = defaultPorts[0].Service
		}
		if slices.ContainsFunc(ports, func(ps PortService) bool { return ps.Port == uint16(p) }) {
			return nil, fmt.Errorf("port map: port %d listed twice", p)
		}
		ports = append(ports, PortService{Port: uint16(p), Service: svc})
	}
	return ports, nil
}

// flowKey identifies a connection by the client endpoint and the
// server port it talks to.
type flowKey struct {
	ip    [16]byte // IPv4 addresses mapped into the low 4 bytes
	port  uint16
	sport uint16
}

// decodedRecord is one parsed TCP packet attributed to a connection.
type decodedRecord struct {
	key  flowKey
	svc  string // the service mapped to the server port
	dir  Dir
	seg  Segment
	ipv6 bool
	mss  int // from SYN options; 0 when absent
}

// decodeTCP parses one captured frame down to a keyed TCP record from
// the server's vantage point, decoding into fr, which the caller owns
// and reuses across records.
func decodeTCP(fr *packet.Frame, data []byte, raw bool, ports []PortService) (decodedRecord, bool) {
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
	found := false
	for _, ps := range ports {
		if fr.TCP.SrcPort == ps.Port {
			dr.dir, dr.key = DirOut, flowKey{dstIP, fr.TCP.DstPort, ps.Port}
		} else if fr.TCP.DstPort == ps.Port {
			dr.dir, dr.key = DirIn, flowKey{srcIP, fr.TCP.SrcPort, ps.Port}
		} else {
			continue
		}
		dr.svc, found = ps.Service, true
		break
	}
	if !found {
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
