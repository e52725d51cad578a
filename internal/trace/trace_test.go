package trace

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
)

// simFlow runs one simulated connection and returns its collected
// flow.
func simFlow(t *testing.T, seed int64, size int64, downLoss netem.LossModel) *Flow {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(seed)
	down := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond, Loss: downLoss})
	up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	col := NewCollector("t-0", "test")
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: size}},
	}
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, col)
	conn.Start()
	s.Run()
	if !conn.Metrics().Done {
		t.Fatal("sim flow did not complete")
	}
	col.Flow.Done = true
	col.Flow.Latency = conn.Metrics().FlowLatency()
	return col.Flow
}

func TestCollectorBasics(t *testing.T) {
	f := simFlow(t, 1, 30_000, nil)
	if len(f.Records) == 0 {
		t.Fatal("no records")
	}
	if f.InitRwnd != tcpsim.DefaultReceiverConfig().InitRwnd {
		t.Errorf("InitRwnd = %d", f.InitRwnd)
	}
	if f.DataBytes() != 30_000 {
		t.Errorf("DataBytes = %d", f.DataBytes())
	}
	if want := (30_000 + 1459) / 1460; f.OutDataPackets() != want {
		t.Errorf("OutDataPackets = %d, want %d", f.OutDataPackets(), want)
	}
	if f.Duration() <= 0 {
		t.Error("Duration <= 0")
	}
	if f.String() == "" {
		t.Error("String empty")
	}
}

func TestOutDataPacketsCountsRetransmissions(t *testing.T) {
	clean := simFlow(t, 2, 30_000, nil)
	lossy := simFlow(t, 2, 30_000, netem.DropList(5))
	if lossy.OutDataPackets() != clean.OutDataPackets()+1 {
		t.Errorf("retransmission not visible: clean=%d lossy=%d",
			clean.OutDataPackets(), lossy.OutDataPackets())
	}
	if lossy.DataBytes() != clean.DataBytes() {
		t.Errorf("DataBytes must ignore retransmissions: %d vs %d",
			lossy.DataBytes(), clean.DataBytes())
	}
}

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

func TestPcapRoundTrip(t *testing.T) {
	orig := simFlow(t, 3, 50_000, netem.DropList(7))
	var buf bytes.Buffer
	if err := ExportPcap(&buf, []*Flow{orig}, ExportConfig{}); err != nil {
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
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(orig.Records))
	}
	if got.InitRwnd != orig.InitRwnd {
		t.Errorf("InitRwnd %d, want %d", got.InitRwnd, orig.InitRwnd)
	}
	if got.DataBytes() != orig.DataBytes() {
		t.Errorf("DataBytes %d, want %d", got.DataBytes(), orig.DataBytes())
	}
	for i := range got.Records {
		g, w := got.Records[i], orig.Records[i]
		if g.Dir != w.Dir {
			t.Fatalf("record %d dir %v, want %v", i, g.Dir, w.Dir)
		}
		if g.Seg.Seq != w.Seg.Seq || g.Seg.Ack != w.Seg.Ack || g.Seg.Len != w.Seg.Len {
			t.Fatalf("record %d seg %+v, want %+v", i, g.Seg, w.Seg)
		}
		if g.Seg.Flags != w.Seg.Flags {
			t.Fatalf("record %d flags %v, want %v", i, g.Seg.Flags, w.Seg.Flags)
		}
		if g.Seg.Wnd != clampWnd(w.Seg.Wnd) {
			t.Fatalf("record %d wnd %d, want %d", i, g.Seg.Wnd, w.Seg.Wnd)
		}
		if g.Seg.SACK.Len() != w.Seg.SACK.Len() {
			t.Fatalf("record %d SACK count %d, want %d", i, g.Seg.SACK.Len(), w.Seg.SACK.Len())
		}
		for bi := 0; bi < g.Seg.SACK.Len(); bi++ {
			if g.Seg.SACK.At(bi) != w.Seg.SACK.At(bi) {
				t.Fatalf("record %d SACK[%d] mismatch", i, bi)
			}
		}
		// Timestamps survive at millisecond resolution.
		dt := time.Duration(g.Seg.TSVal - w.Seg.TSVal)
		if dt < 0 {
			dt = -dt
		}
		if w.Seg.TSVal != 0 && dt > time.Millisecond {
			t.Fatalf("record %d TSVal drift %v", i, dt)
		}
		// Capture times survive (ns resolution), rebased to the
		// first frame.
		want := w.T.Add(-time.Duration(orig.Records[0].T))
		if g.T != want {
			t.Fatalf("record %d time %v, want %v (rebased)", i, g.T, want)
		}
	}
}

func clampWnd(w int) int {
	if w > 65535 {
		return 65535
	}
	if w < 0 {
		return 0
	}
	return w
}

func TestPcapMultiFlow(t *testing.T) {
	f1 := simFlow(t, 4, 20_000, nil)
	f2 := simFlow(t, 5, 40_000, nil)
	var buf bytes.Buffer
	if err := ExportPcap(&buf, []*Flow{f1, f2}, ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	flows, err := ImportPcap(&buf, ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("imported %d flows, want 2", len(flows))
	}
	sizes := map[int64]bool{flows[0].DataBytes(): true, flows[1].DataBytes(): true}
	if !sizes[20_000] || !sizes[40_000] {
		t.Errorf("flow sizes wrong: %v", sizes)
	}
}

func TestExportedFramesAreValid(t *testing.T) {
	f := simFlow(t, 6, 10_000, nil)
	var buf bytes.Buffer
	if err := ExportPcap(&buf, []*Flow{f}, ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	// Every frame must decode and carry valid checksums.
	flows, err := ImportPcap(bytes.NewReader(buf.Bytes()), ImportConfig{})
	if err != nil || len(flows) != 1 {
		t.Fatalf("import: %v", err)
	}
	// Deep-validate checksums via raw re-read.
	r, _ := newRawReader(buf.Bytes())
	n := 0
	for _, data := range r {
		var fr packet.Frame
		if err := fr.Decode(data); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if !fr.IP4.VerifyChecksum(data[packet.EthernetHeaderLen:]) {
			t.Fatalf("frame %d: bad IP checksum", n)
		}
		segLen := int(fr.IP4.TotalLen) - fr.IP4.HeaderLen()
		ctx := packet.V4Context(fr.IP4.Src, fr.IP4.Dst, segLen)
		seg := data[packet.EthernetHeaderLen+fr.IP4.HeaderLen():]
		if !packet.VerifyChecksum(seg, ctx) {
			t.Fatalf("frame %d: bad TCP checksum", n)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no frames")
	}
}

// newRawReader extracts raw frame bytes from a pcap buffer (helper
// for checksum validation).
func newRawReader(data []byte) ([][]byte, error) {
	r, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	pkts, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(pkts))
	for _, p := range pkts {
		out = append(out, p.Data)
	}
	return out, nil
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
	if f.Records[0].Dir != tcpsim.DirOut || f.Records[0].Seg.Len != 500 {
		t.Errorf("record 0 = %+v", f.Records[0])
	}
	if f.Records[1].Dir != tcpsim.DirIn {
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

// ImportPcapRecords decodes into one reused frame and one reused
// record buffer, so a one-flow capture costs a fixed handful of
// allocations (reader, maps, the flow's state and ID, buffer growth),
// not some per record.
func TestImportPcapRecordsAllocs(t *testing.T) {
	const n = 1000
	f := &Flow{ID: "one", Service: "test", MSS: 1460}
	for i := 0; i < n; i++ {
		dir, seg := tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: uint32(1 + i*1460), Ack: 1, Len: 1460, Wnd: 65535}
		if i%2 == 1 {
			dir, seg = tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: uint32(1 + (i+1)*1460), Wnd: 65535,
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
	if f.Records[1].Dir != tcpsim.DirIn {
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
		{T: ms(0), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagSYN, Seq: 0, Wnd: 65535}},
		{T: ms(1), Dir: tcpsim.DirOut, Seg: tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: 0, Ack: 1, Wnd: 65535}},
		{T: ms(2), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535}},
		{T: ms(3), Dir: tcpsim.DirOut, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Len: 1460, Wnd: 65535}},
		{T: ms(4), Dir: tcpsim.DirOut, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1461, Ack: 1, Len: 1460, Wnd: 65535}},
		// Three blocks, then one, then none, then two: every
		// transition where stale state could leak.
		{T: ms(5), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535,
			SACK: sack(packet.SACKBlock{Left: 2921, Right: 4381},
				packet.SACKBlock{Left: 5841, Right: 7301},
				packet.SACKBlock{Left: 8761, Right: 10221})}},
		{T: ms(6), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 1, Wnd: 65535,
			SACK: sack(packet.SACKBlock{Left: 2921, Right: 5841})}},
		{T: ms(7), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 5841, Wnd: 65535}},
		{T: ms(8), Dir: tcpsim.DirIn, Seg: tcpsim.Segment{Flags: packet.FlagACK, Seq: 1, Ack: 5841, Wnd: 65535,
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
