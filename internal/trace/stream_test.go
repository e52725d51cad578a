package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
)

// capture hand-builds an Ethernet/IPv4/TCP pcap, one frame at a time,
// so tests control teardown shapes the simulator never produces.
type capture struct {
	t   testing.TB
	buf bytes.Buffer
	pw  *pcap.Writer
	now time.Time
	// port is the server port of the frames appended next.
	port uint16
}

func newCapture(t testing.TB) *capture {
	c := &capture{t: t, now: time.Date(2014, 12, 22, 18, 0, 0, 0, time.UTC), port: serverPort}
	pw, err := pcap.NewWriter(&c.buf, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	c.pw = pw
	return c
}

var (
	serverIP = [4]byte{10, 0, 0, 1}
	clientA  = [4]byte{100, 64, 0, 1}
	clientB  = [4]byte{100, 64, 0, 2}
)

const (
	serverPort = 80
	clientPort = 12345
)

// frame appends one packet. fromServer selects direction; payloadLen
// bytes of zeros ride along.
func (c *capture) frame(fromServer bool, clientIP [4]byte, flags packet.TCPFlags, seq, ack uint32, payloadLen int) {
	c.segment(fromServer, clientIP, packet.TCPHeader{Seq: seq, Ack: ack, Flags: flags, Window: 65535}, payloadLen)
}

// syn appends a client SYN advertising mss and window wnd.
func (c *capture) syn(clientIP [4]byte, seq uint32, mss, wnd uint16) {
	tcp := packet.TCPHeader{Seq: seq, Flags: packet.FlagSYN, Window: wnd}
	tcp.Options.HasMSS, tcp.Options.MSS = true, mss
	c.segment(false, clientIP, tcp, 0)
}

// segment appends one packet carrying tcp, whose ports it fills in.
func (c *capture) segment(fromServer bool, clientIP [4]byte, tcp packet.TCPHeader, payloadLen int) {
	c.now = c.now.Add(time.Millisecond)
	var eth packet.Ethernet
	var ip packet.IPv4
	ip.TTL = 64
	if fromServer {
		ip.Src, ip.Dst = serverIP, clientIP
		tcp.SrcPort, tcp.DstPort = c.port, clientPort
	} else {
		ip.Src, ip.Dst = clientIP, serverIP
		tcp.SrcPort, tcp.DstPort = clientPort, c.port
	}
	data := packet.EncodeTCPv4(&eth, &ip, &tcp, make([]byte, payloadLen))
	if err := c.pw.WritePacket(pcap.Packet{Timestamp: c.now, Data: data}); err != nil {
		c.t.Fatal(err)
	}
}

// stream runs ImportPcapStream over the capture and returns flows in
// emission order.
func (c *capture) stream() []*Flow {
	var out []*Flow
	err := ImportPcapStream(bytes.NewReader(c.buf.Bytes()), ImportConfig{}, func(f *Flow) error {
		out = append(out, f)
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return out
}

// TestStreamEmitsOnRST: a reset closes the connection immediately, so
// packets from the same client endpoint afterwards open a second flow
// carrying the "#2" generation suffix.
func TestStreamEmitsOnRST(t *testing.T) {
	c := newCapture(t)
	c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(false, clientA, packet.FlagACK, 1, 1, 0)
	c.frame(true, clientA, packet.FlagRST, 1, 1, 0)
	// Same endpoint comes back: must be a distinct flow.
	c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)

	flows := c.stream()
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(flows))
	}
	if n := len(flows[0].Records); n != 4 {
		t.Errorf("first flow has %d records, want 4", n)
	}
	if n := len(flows[1].Records); n != 2 {
		t.Errorf("second flow has %d records, want 2", n)
	}
	if flows[0].ID == flows[1].ID {
		t.Errorf("reincarnated flow shares ID %q with its predecessor", flows[0].ID)
	}
	if want := flows[0].ID + "#2"; flows[1].ID != want {
		t.Errorf("second flow ID = %q, want %q", flows[1].ID, want)
	}
}

// TestStreamEmitsOnFINTeardown: after FINs in both directions, the
// final pure ACK completes the flow mid-capture.
func TestStreamEmitsOnFINTeardown(t *testing.T) {
	c := newCapture(t)
	// Flow A: full handshake, one data segment, full FIN teardown.
	c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(false, clientA, packet.FlagACK, 1, 1, 0)
	c.frame(true, clientA, packet.FlagACK, 1, 1, 100)
	c.frame(false, clientA, packet.FlagACK, 1, 101, 0)
	c.frame(true, clientA, packet.FlagFIN|packet.FlagACK, 101, 1, 0)
	c.frame(false, clientA, packet.FlagFIN|packet.FlagACK, 1, 102, 0)
	c.frame(true, clientA, packet.FlagACK, 102, 2, 0) // completes A
	// Flow B stays open past EOF.
	c.frame(false, clientB, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientB, packet.FlagSYN|packet.FlagACK, 0, 1, 0)

	flows := c.stream()
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(flows))
	}
	if n := len(flows[0].Records); n != 8 {
		t.Errorf("torn-down flow has %d records, want 8", n)
	}
	if n := len(flows[1].Records); n != 2 {
		t.Errorf("EOF-flushed flow has %d records, want 2", n)
	}
}

// TestStreamFINWithoutFinalACKFlushesAtEOF: the simulator's teardown
// shape — both FINs, no trailing ACK — must NOT complete early, so
// any late packets still join the same flow and streaming stays
// identical to batch import.
func TestStreamFINWithoutFinalACKFlushesAtEOF(t *testing.T) {
	c := newCapture(t)
	c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(false, clientA, packet.FlagACK, 1, 1, 0)
	c.frame(true, clientA, packet.FlagFIN|packet.FlagACK, 1, 1, 0)
	c.frame(false, clientA, packet.FlagFIN|packet.FlagACK, 1, 2, 0)

	flows := c.stream()
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(flows))
	}
	if n := len(flows[0].Records); n != 5 {
		t.Errorf("flow has %d records, want 5", n)
	}
}

// TestStreamMatchesBatchImport: over an interleaved two-client
// capture in which client A resets and reconnects from the same
// endpoint, the streaming importer reassembles exactly the flows the
// batch importer does: the same IDs ("#2" included), MSS, initial
// window and records.
func TestStreamMatchesBatchImport(t *testing.T) {
	c := newCapture(t)
	c.syn(clientA, 0, 1400, 64000)
	c.syn(clientB, 0, 1460, 65535)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(true, clientB, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(false, clientA, packet.FlagACK, 1, 1, 0)
	c.frame(true, clientB, packet.FlagACK, 1, 1, 500)
	c.frame(true, clientA, packet.FlagACK, 1, 1, 300)
	c.frame(false, clientB, packet.FlagACK, 1, 501, 0)
	c.frame(false, clientA, packet.FlagACK, 1, 301, 0)
	c.frame(false, clientA, packet.FlagRST, 301, 0, 0)
	// Same endpoint, new connection with its own MSS and window.
	c.syn(clientA, 9000, 1200, 32000)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 5000, 9001, 0)
	c.frame(true, clientA, packet.FlagACK, 5001, 9001, 200)

	streamed := c.stream()
	batch, err := ImportPcap(bytes.NewReader(c.buf.Bytes()), ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Errorf("batch import gave %d flows, want 3 (A, B, A#2)", len(batch))
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d flows, batch %d", len(streamed), len(batch))
	}
	// The stream emits A at its RST, then B and A#2 at EOF in
	// first-seen order: the same order batch import returns.
	for i := range batch {
		sf, bf := streamed[i], batch[i]
		if sf.ID != bf.ID || sf.MSS != bf.MSS || sf.InitRwnd != bf.InitRwnd {
			t.Errorf("flow %d: streamed %s mss=%d rwnd=%d, batch %s mss=%d rwnd=%d",
				i, sf.ID, sf.MSS, sf.InitRwnd, bf.ID, bf.MSS, bf.InitRwnd)
		}
		if !reflect.DeepEqual(sf.Records, bf.Records) {
			t.Errorf("flow %s: streamed records %+v, batch %+v", bf.ID, sf.Records, bf.Records)
		}
	}
	a2 := batch[len(batch)-1]
	if a2.ID != batch[0].ID+"#2" || a2.MSS != 1200 || a2.InitRwnd != 32000 || len(a2.Records) != 3 {
		t.Errorf("reconnect = %s mss=%d rwnd=%d records=%d, want %s#2 mss=1200 rwnd=32000 records=3",
			a2.ID, a2.MSS, a2.InitRwnd, len(a2.Records), batch[0].ID)
	}
}
