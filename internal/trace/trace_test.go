package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
)

func TestSortByTime(t *testing.T) {
	f := &Flow{Records: []Record{
		{T: sim.Time(3 * time.Second)},
		{T: sim.Time(1 * time.Second)},
		{T: sim.Time(2 * time.Second)},
	}}
	f.SortByTime()
	for i := 1; i < 3; i++ {
		if f.Records[i].T < f.Records[i-1].T {
			t.Fatal("not sorted")
		}
	}
}

func TestTimestampTickConversion(t *testing.T) {
	if tsTicks(0) != 0 {
		t.Error("zero time must map to zero tick")
	}
	if ticksToTime(0) != 0 {
		t.Error("zero tick must map to zero time")
	}
	tm := sim.Time(1234 * time.Millisecond)
	if got := ticksToTime(tsTicks(tm)); got != tm {
		t.Errorf("tick round trip: %v != %v", got, tm)
	}
}

func TestClampU16(t *testing.T) {
	if clampU16(-5) != 0 || clampU16(70000) != 65535 || clampU16(100) != 100 {
		t.Error("clampU16")
	}
}

func TestImportRawIPPcap(t *testing.T) {
	// Hand-build a raw-IP capture: one IPv4 TCP segment each way.
	var buf bytes.Buffer
	w, err := pcap.NewWriterHeader(&buf, pcap.Header{LinkType: pcap.LinkTypeRaw})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	mk4 := func(srcPort, dstPort uint16, seq uint32, payload int) []byte {
		ip := packet.IPv4{TTL: 64, Protocol: packet.IPProtoTCP,
			Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}}
		if srcPort != 80 {
			ip.Src, ip.Dst = ip.Dst, ip.Src
		}
		tcp := packet.TCPHeader{SrcPort: srcPort, DstPort: dstPort,
			Seq: seq, Flags: packet.FlagACK, Window: 1000}
		segLen := tcp.HeaderLen() + payload
		raw := ip.AppendTo(nil, segLen)
		return tcp.AppendTo(raw, make([]byte, payload), packet.V4Context(ip.Src, ip.Dst, segLen))
	}
	w.WritePacket(pcap.Packet{Timestamp: base, Data: mk4(80, 4242, 1, 500)})
	w.WritePacket(pcap.Packet{Timestamp: base.Add(time.Millisecond), Data: mk4(4242, 80, 1, 0)})

	flows, err := ImportPcap(&buf, ImportConfig{ServerPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if len(f.Records) != 2 {
		t.Fatalf("records = %d", len(f.Records))
	}
	if f.Records[0].Dir != DirOut || f.Records[0].Seg.Len != 500 {
		t.Errorf("record 0 = %+v", f.Records[0])
	}
	if f.Records[1].Dir != DirIn {
		t.Errorf("record 1 dir = %v", f.Records[1].Dir)
	}
}

// The importers reuse one decode frame across records. On a raw-IP
// capture an IPv6 record followed by an IPv4 record must still decode
// the second as IPv4 — two flows, keyed by their own addresses — in
// both the flow and the per-record importer.
func TestImportRawIPv6ThenIPv4(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriterHeader(&buf, pcap.Header{LinkType: pcap.LinkTypeRaw})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	tcp := packet.TCPHeader{SrcPort: 80, DstPort: 4242, Seq: 1, Flags: packet.FlagACK, Window: 1000}
	segLen := tcp.HeaderLen() + 300
	var srv6, cli6 [16]byte
	srv6[15], cli6[15] = 1, 2
	ip6 := packet.IPv6{HopLimit: 64, NextHeader: packet.IPProtoTCP, Src: srv6, Dst: cli6}
	v6 := tcp.AppendTo(ip6.AppendTo(nil, segLen), make([]byte, 300), packet.V6Context(srv6, cli6, segLen))
	ip4 := packet.IPv4{TTL: 64, Protocol: packet.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}}
	v4 := tcp.AppendTo(ip4.AppendTo(nil, segLen), make([]byte, 300), packet.V4Context(ip4.Src, ip4.Dst, segLen))
	w.WritePacket(pcap.Packet{Timestamp: base, Data: v6})
	w.WritePacket(pcap.Packet{Timestamp: base.Add(time.Millisecond), Data: v4})

	want := []string{fmt.Sprintf("[%x]:4242", cli6), "10.0.0.2:4242"}
	flows, err := ImportPcap(bytes.NewReader(buf.Bytes()), ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range flows {
		got = append(got, f.ID)
		if len(f.Records) != 1 || f.Records[0].Seg.Len != 300 {
			t.Errorf("flow %s: records %+v, want one 300-byte segment", f.ID, f.Records)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ImportPcap flows = %v, want %v", got, want)
	}
	got = got[:0]
	err = ImportPcapRecords(bytes.NewReader(buf.Bytes()), ImportConfig{}, func(ev RecordEvent) error {
		got = append(got, ev.FlowID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ImportPcapRecords flows = %v, want %v", got, want)
	}
}

// ipSegment builds one bare IP/TCP packet between server port 80 and
// client port 4242, over IPv6 when v6 is set.
func ipSegment(v6, fromServer bool, flags packet.TCPFlags, seq uint32, payloadLen int) []byte {
	tcp := packet.TCPHeader{SrcPort: 4242, DstPort: 80, Seq: seq, Flags: flags, Window: 1000}
	if fromServer {
		tcp.SrcPort, tcp.DstPort = 80, 4242
	}
	segLen := tcp.HeaderLen() + payloadLen
	payload := make([]byte, payloadLen)
	if v6 {
		var srv, cli [16]byte
		srv[15], cli[15] = 1, 2
		ip := packet.IPv6{HopLimit: 64, NextHeader: packet.IPProtoTCP, Src: cli, Dst: srv}
		if fromServer {
			ip.Src, ip.Dst = srv, cli
		}
		return tcp.AppendTo(ip.AppendTo(nil, segLen), payload, packet.V6Context(ip.Src, ip.Dst, segLen))
	}
	ip := packet.IPv4{TTL: 64, Protocol: packet.IPProtoTCP, Src: [4]byte{10, 0, 0, 2}, Dst: [4]byte{10, 0, 0, 1}}
	if fromServer {
		ip.Src, ip.Dst = ip.Dst, ip.Src
	}
	return tcp.AppendTo(ip.AppendTo(nil, segLen), payload, packet.V4Context(ip.Src, ip.Dst, segLen))
}

// zeroIPLen clears an IP packet's length field, as a capture on a
// TSO sender records the oversized segments it hands the NIC.
func zeroIPLen(b []byte) []byte {
	if b[0]>>4 == 6 {
		b[4], b[5] = 0, 0
	} else {
		b[2], b[3] = 0, 0
	}
	return b
}

// linkCapture writes bare IP packets 1 ms apart as one capture: as
// they are under LinkTypeRaw, behind an Ethernet header whose
// EtherType matches each packet's IP version under LinkTypeEthernet.
func linkCapture(tb testing.TB, link pcap.LinkType, pkts ...[]byte) []byte {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, link)
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for i, p := range pkts {
		data := p
		if link == pcap.LinkTypeEthernet {
			eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
			if p[0]>>4 == 6 {
				eth.Type = packet.EtherTypeIPv6
			}
			data = append(eth.AppendTo(nil), p...)
		}
		if err := w.WritePacket(pcap.Packet{Timestamp: base.Add(time.Duration(i) * time.Millisecond), Data: data}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The same IP packets import to the same flows and events whether the
// capture is raw-IP or Ethernet, over IPv4 and IPv6 — including a
// TSO segment whose IP length field is 0, which takes its length from
// the captured bytes on both link types and both IP versions.
func TestImportRawIPMatchesEthernet(t *testing.T) {
	var pkts [][]byte
	for _, v6 := range []bool{false, true} {
		pkts = append(pkts,
			ipSegment(v6, false, packet.FlagSYN, 0, 0),
			ipSegment(v6, true, packet.FlagSYN|packet.FlagACK, 0, 0),
			zeroIPLen(ipSegment(v6, true, packet.FlagACK, 1, 500)),
			ipSegment(v6, true, packet.FlagACK, 501, 300),
			ipSegment(v6, false, packet.FlagACK, 1, 0),
		)
	}
	type imported struct {
		flows  []*Flow
		events []RecordEvent
	}
	var got [2]imported
	for i, link := range []pcap.LinkType{pcap.LinkTypeRaw, pcap.LinkTypeEthernet} {
		data := linkCapture(t, link, pkts...)
		flows, err := ImportPcap(bytes.NewReader(data), ImportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got[i].flows = flows
		err = ImportPcapRecords(bytes.NewReader(data), ImportConfig{}, func(ev RecordEvent) error {
			got[i].events = append(got[i].events, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, eth := got[0], got[1]
	if !reflect.DeepEqual(raw.flows, eth.flows) {
		t.Error("ImportPcap: raw-IP flows differ from Ethernet flows")
	}
	if len(raw.events) != len(eth.events) {
		t.Errorf("ImportPcapRecords: %d raw-IP events, %d Ethernet events", len(raw.events), len(eth.events))
	}
	for i := range min(len(raw.events), len(eth.events)) {
		if raw.events[i] != eth.events[i] {
			t.Errorf("ImportPcapRecords event %d: raw-IP %+v, Ethernet %+v", i, raw.events[i], eth.events[i])
		}
	}
	if len(raw.flows) != 2 || len(raw.flows[0].Records) != 5 || len(raw.flows[1].Records) != 5 {
		t.Fatalf("raw-IP import: %v, want a 5-record IPv4 flow and a 5-record IPv6 flow", raw.flows)
	}
	for i, ver := range []string{"IPv4", "IPv6"} {
		if n := raw.flows[i].Records[2].Seg.Len; n != 500 {
			t.Errorf("%s segment with IP length 0 imported with Len %d, want 500", ver, n)
		}
	}
}

// ImportPcapRecords decodes into one reused frame and one reused
// record buffer, so a one-flow capture costs a fixed handful of
// allocations (reader, maps, the flow's state and ID, buffer growth),
// not some per record.
func TestImportPcapRecordsAllocs(t *testing.T) {
	const n = 1000
	f := &Flow{ID: "one", Service: "test", MSS: 1460}
	for i := 0; i < n; i++ {
		dir, seg := DirOut, Segment{Flags: packet.FlagACK, Seq: uint32(1 + i*1460), Ack: 1, Len: 1460, Wnd: 65535}
		if i%2 == 1 {
			dir, seg = DirIn, Segment{Flags: packet.FlagACK, Seq: 1, Ack: uint32(1 + (i+1)*1460), Wnd: 65535,
				SACK: packet.SACKBlocks(packet.SACKBlock{Left: 9, Right: 99})}
		}
		f.Records = append(f.Records, Record{T: sim.Time(i) * sim.Time(time.Millisecond), Dir: dir, Seg: seg})
	}
	var buf bytes.Buffer
	if err := ExportPcap(&buf, []*Flow{f}, ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var rd bytes.Reader
	records := 0
	allocs := testing.AllocsPerRun(5, func() {
		rd.Reset(data)
		records = 0
		err := ImportPcapRecords(&rd, ImportConfig{}, func(RecordEvent) error {
			records++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if records != n {
		t.Fatalf("imported %d records, want %d", records, n)
	}
	const budget = 16
	if allocs > budget {
		t.Errorf("ImportPcapRecords made %.0f allocations over %d records, budget %d", allocs, n, budget)
	}
}

func TestImportIPv6Pcap(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriterHeader(&buf, pcap.Header{LinkType: pcap.LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	var srv, cli [16]byte
	srv[15], cli[15] = 1, 2
	mk6 := func(out bool, seq uint32, payload int) []byte {
		eth := packet.Ethernet{}
		ip := packet.IPv6{HopLimit: 64, NextHeader: packet.IPProtoTCP}
		tcp := packet.TCPHeader{Flags: packet.FlagACK, Window: 900, Seq: seq}
		if out {
			ip.Src, ip.Dst = srv, cli
			tcp.SrcPort, tcp.DstPort = 80, 555
		} else {
			ip.Src, ip.Dst = cli, srv
			tcp.SrcPort, tcp.DstPort = 555, 80
		}
		return packet.EncodeTCPv6(&eth, &ip, &tcp, make([]byte, payload))
	}
	w.WritePacket(pcap.Packet{Timestamp: base, Data: mk6(true, 1, 700)})
	w.WritePacket(pcap.Packet{Timestamp: base.Add(time.Millisecond), Data: mk6(false, 1, 0)})

	flows, err := ImportPcap(&buf, ImportConfig{ServerPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if len(f.Records) != 2 {
		t.Fatalf("records = %d", len(f.Records))
	}
	if f.Records[0].Seg.Len != 700 {
		t.Errorf("v6 payload len = %d (from PayloadLen field)", f.Records[0].Seg.Len)
	}
	if f.Records[1].Dir != DirIn {
		t.Error("direction")
	}
}

func TestImportSkipsGarbageFrames(t *testing.T) {
	var buf bytes.Buffer
	w, _ := pcap.NewWriterHeader(&buf, pcap.Header{LinkType: pcap.LinkTypeRaw})
	base := time.Unix(1700000000, 0).UTC()
	w.WritePacket(pcap.Packet{Timestamp: base, Data: []byte{0xff, 0x00}}) // bogus version
	w.WritePacket(pcap.Packet{Timestamp: base, Data: nil})                // empty
	w.WritePacket(pcap.Packet{Timestamp: base, Data: []byte{0x45, 0x00}}) // truncated v4
	flows, err := ImportPcap(&buf, ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 0 {
		t.Errorf("flows = %d from garbage", len(flows))
	}
}

// TestPcapRoundTripBackToBackSACK is the regression test for the SACK
// reuse bug: consecutive SACK-carrying ACKs where a later record
// carries FEWER blocks than its predecessor. With slice-append reuse
// in the export/import structs, a stale block from the previous
// record would survive into the next one and silently corrupt the
// scoreboard walk; inline SACK storage plus the explicit reset makes
// each record's list exact.
func TestPcapRoundTripBackToBackSACK(t *testing.T) {
	sack := func(blocks ...packet.SACKBlock) packet.SACKList {
		return packet.SACKBlocks(blocks...)
	}
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	f := &Flow{ID: "t-0", Service: "test", MSS: 1460, InitRwnd: 65535, Done: true}
	f.Records = []Record{
		{T: ms(0), Dir: DirIn, Seg: Segment{Flags: packet.FlagSYN, Seq: 0, Wnd: 65535}},
		{T: ms(1), Dir: DirOut, Seg: Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: 0, Ack: 1, Wnd: 65535}},
		{T: ms(2), Dir: DirIn, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535}},
		{T: ms(3), Dir: DirOut, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Len: 1460, Wnd: 65535}},
		{T: ms(4), Dir: DirOut, Seg: Segment{Flags: packet.FlagACK, Seq: 1461, Ack: 1, Len: 1460, Wnd: 65535}},
		// Three blocks, then one, then none, then two: every
		// transition where stale state could leak.
		{T: ms(5), Dir: DirIn, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535,
			SACK: sack(packet.SACKBlock{Left: 2921, Right: 4381},
				packet.SACKBlock{Left: 5841, Right: 7301},
				packet.SACKBlock{Left: 8761, Right: 10221})}},
		{T: ms(6), Dir: DirIn, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535,
			SACK: sack(packet.SACKBlock{Left: 2921, Right: 5841})}},
		{T: ms(7), Dir: DirIn, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 5841, Wnd: 65535}},
		{T: ms(8), Dir: DirIn, Seg: Segment{Flags: packet.FlagACK, Seq: 1, Ack: 5841, Wnd: 65535,
			SACK: sack(packet.SACKBlock{Left: 7301, Right: 8761},
				packet.SACKBlock{Left: 10221, Right: 11681})}},
	}
	var buf bytes.Buffer
	if err := ExportPcap(&buf, []*Flow{f}, ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	flows, err := ImportPcap(&buf, ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("imported %d flows", len(flows))
	}
	got := flows[0]
	if len(got.Records) != len(f.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(f.Records))
	}
	for i := range got.Records {
		g, w := got.Records[i].Seg.SACK, f.Records[i].Seg.SACK
		if g != w {
			t.Errorf("record %d SACK %v, want %v (stale blocks leaked?)", i, g, w)
		}
	}
}
