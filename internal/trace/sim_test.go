package trace_test

import (
	"bytes"
	"cmp"
	"testing"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// simFlow runs one simulated connection and returns its collected
// flow.
func simFlow(t *testing.T, seed int64, size int64, downLoss netem.LossModel) *trace.Flow {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(seed)
	down := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond, Loss: downLoss})
	up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	col := trace.NewCollector("t-0", "test")
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
	if got, want := outDataPackets(f), (30_000+1459)/1460; got != want {
		t.Errorf("%d outgoing data packets, want %d", got, want)
	}
	if f.Duration() <= 0 {
		t.Error("Duration <= 0")
	}
	if f.String() == "" {
		t.Error("String empty")
	}
}

// outDataPackets counts f's outgoing payload-carrying records,
// retransmissions included.
func outDataPackets(f *trace.Flow) int {
	n := 0
	for _, r := range f.Records {
		if r.Dir == trace.DirOut && r.Seg.Len > 0 {
			n++
		}
	}
	return n
}

func TestOutDataPacketsCountsRetransmissions(t *testing.T) {
	clean := simFlow(t, 2, 30_000, nil)
	lossy := simFlow(t, 2, 30_000, netem.DropList(5))
	if outDataPackets(lossy) != outDataPackets(clean)+1 {
		t.Errorf("retransmission not visible: clean=%d lossy=%d",
			outDataPackets(clean), outDataPackets(lossy))
	}
	if lossy.DataBytes() != clean.DataBytes() {
		t.Errorf("DataBytes must ignore retransmissions: %d vs %d",
			lossy.DataBytes(), clean.DataBytes())
	}
}
func TestPcapRoundTrip(t *testing.T) {
	orig := simFlow(t, 3, 50_000, netem.DropList(7))
	var buf bytes.Buffer
	if err := trace.ExportPcap(&buf, []*trace.Flow{orig}, trace.ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	flows, err := trace.ImportPcap(&buf, trace.ImportConfig{})
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
	if err := trace.ExportPcap(&buf, []*trace.Flow{f1, f2}, trace.ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	flows, err := trace.ImportPcap(&buf, trace.ImportConfig{})
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

// TestExportedFramesAreValid checks every exported frame, whole and cut
// at a header-only snap length: its lengths agree with its IP header,
// it decodes, and both checksums verify once a cut frame is padded
// back to its wire length with the zeros the export left out.
func TestExportedFramesAreValid(t *testing.T) {
	f := simFlow(t, 6, 10_000, nil)
	for _, snaplen := range []uint32{0, 96} {
		var buf bytes.Buffer
		if err := trace.ExportPcap(&buf, []*trace.Flow{f}, trace.ExportConfig{Snaplen: snaplen}); err != nil {
			t.Fatal(err)
		}
		flows, err := trace.ImportPcap(bytes.NewReader(buf.Bytes()), trace.ImportConfig{})
		if err != nil || len(flows) != 1 {
			t.Fatalf("snaplen %d: import: %v", snaplen, err)
		}
		r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		capLen := int(cmp.Or(snaplen, pcap.DefaultSnaplen))
		for n, p := range pkts {
			if want := min(p.OrigLen, capLen); len(p.Data) != want {
				t.Fatalf("snaplen %d, frame %d: captured %d bytes, want %d", snaplen, n, len(p.Data), want)
			}
			var fr packet.Frame
			if err := fr.Decode(p.Data); err != nil {
				t.Fatalf("snaplen %d, frame %d: %v", snaplen, n, err)
			}
			if want := packet.EthernetHeaderLen + int(fr.IP4.TotalLen); p.OrigLen != want {
				t.Fatalf("snaplen %d, frame %d: orig_len %d, want %d", snaplen, n, p.OrigLen, want)
			}
			if !fr.IP4.VerifyChecksum(p.Data[packet.EthernetHeaderLen:]) {
				t.Fatalf("snaplen %d, frame %d: bad IP checksum", snaplen, n)
			}
			wire := append(p.Data, make([]byte, p.OrigLen-len(p.Data))...)
			segLen := int(fr.IP4.TotalLen) - fr.IP4.HeaderLen()
			ctx := packet.V4Context(fr.IP4.Src, fr.IP4.Dst, segLen)
			if !packet.VerifyChecksum(wire[packet.EthernetHeaderLen+fr.IP4.HeaderLen():], ctx) {
				t.Fatalf("snaplen %d, frame %d: bad TCP checksum", snaplen, n)
			}
		}
		if len(pkts) == 0 {
			t.Fatalf("snaplen %d: no frames", snaplen)
		}
	}
}
