package trace_test

import (
	"bytes"
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

func TestExportedFramesAreValid(t *testing.T) {
	f := simFlow(t, 6, 10_000, nil)
	var buf bytes.Buffer
	if err := trace.ExportPcap(&buf, []*trace.Flow{f}, trace.ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	// Every frame must decode and carry valid checksums.
	flows, err := trace.ImportPcap(bytes.NewReader(buf.Bytes()), trace.ImportConfig{})
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
