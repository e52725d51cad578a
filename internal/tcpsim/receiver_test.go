package tcpsim

import (
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// receiverRig wires a receiver to a capture buffer; the test plays
// the server by calling HandleData directly.
type receiverRig struct {
	sim  *sim.Simulator
	rcv  *Receiver
	acks []trace.Segment
}

func newReceiverRig(cfg ReceiverConfig) *receiverRig {
	s := sim.New()
	r := &receiverRig{sim: s, rcv: NewReceiver(s, cfg, 1)}
	r.rcv.Output = func(seg *trace.Segment) {
		// Inline SACK storage: a value copy is deep.
		r.acks = append(r.acks, *seg)
	}
	return r
}

func (r *receiverRig) data(seq uint32, length int) {
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Len: length, TSVal: r.sim.Now()})
}

func (r *receiverRig) lastAck(t *testing.T) trace.Segment {
	t.Helper()
	if len(r.acks) == 0 {
		t.Fatal("no ACK emitted")
	}
	return r.acks[len(r.acks)-1]
}

func TestReceiverInOrderDelayedAck(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.DelAckDelay = 40 * time.Millisecond
	r := newReceiverRig(cfg)
	r.data(1, 1460)
	if len(r.acks) != 0 {
		t.Fatalf("single segment should be delack'd, got %d ACKs", len(r.acks))
	}
	r.sim.RunFor(50 * time.Millisecond)
	if len(r.acks) != 1 {
		t.Fatalf("delack timer did not fire: %d ACKs", len(r.acks))
	}
	if a := r.lastAck(t); a.Ack != 1461 {
		t.Errorf("ack = %d", a.Ack)
	}
}

func TestReceiverAckEverySecondSegment(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	r.data(1, 1460)
	r.data(1461, 1460)
	if len(r.acks) != 1 {
		t.Fatalf("2 segments should force 1 immediate ACK, got %d", len(r.acks))
	}
	if a := r.lastAck(t); a.Ack != 2921 {
		t.Errorf("ack = %d", a.Ack)
	}
}

func TestReceiverOutOfOrderSACK(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	r.data(1, 1460)
	r.data(1461, 1460) // immediate ack @2921
	r.data(4381, 1460) // hole at 2921
	a := r.lastAck(t)
	if a.Ack != 2921 {
		t.Fatalf("dupack cum = %d", a.Ack)
	}
	if a.SACK.Len() != 1 || a.SACK.At(0) != (packet.SACKBlock{Left: 4381, Right: 5841}) {
		t.Fatalf("SACK = %v", a.SACK)
	}
	// Second ooo range: most recent block first.
	r.data(8761, 1460)
	a = r.lastAck(t)
	if a.SACK.Len() != 2 || a.SACK.At(0).Left != 8761 || a.SACK.At(1).Left != 4381 {
		t.Fatalf("SACK recency order = %v", a.SACK)
	}
	// Fill the first hole: rcvNxt jumps over the merged range.
	r.data(2921, 1460)
	a = r.lastAck(t)
	if a.Ack != 5841 {
		t.Errorf("after fill ack = %d, want 5841", a.Ack)
	}
	if r.rcv.RcvNxt() != 5841 {
		t.Errorf("RcvNxt = %d", r.rcv.RcvNxt())
	}
}

func TestReceiverAdjacentOOOMerge(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	r.data(2921, 1460)
	r.data(4381, 1460)
	a := r.lastAck(t)
	if a.SACK.Len() != 1 || a.SACK.At(0) != (packet.SACKBlock{Left: 2921, Right: 5841}) {
		t.Fatalf("adjacent spans should merge: %v", a.SACK)
	}
}

func TestReceiverDSACKOnDuplicate(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	r.data(1, 1460)
	r.data(1461, 1460)
	n := len(r.acks)
	r.data(1, 1460) // full duplicate
	if len(r.acks) != n+1 {
		t.Fatal("duplicate must be ACKed immediately")
	}
	a := r.lastAck(t)
	if a.SACK.Len() == 0 || a.SACK.At(0) != (packet.SACKBlock{Left: 1, Right: 1461}) {
		t.Fatalf("DSACK = %v", a.SACK)
	}
	if a.SACK.At(0).Right > a.Ack == false && a.Ack < a.SACK.At(0).Right {
		t.Error("DSACK block must sit at/below the cumulative ACK")
	}
	if r.rcv.Stats().DSACKsSent != 1 {
		t.Errorf("DSACKsSent = %d", r.rcv.Stats().DSACKsSent)
	}
}

func TestReceiverWindowAndSWS(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.InitRwnd = 4 * 1460
	cfg.BufSize = 4 * 1460
	cfg.ReadRate = 1 // effectively frozen reader
	r := newReceiverRig(cfg)
	if r.rcv.Window() != 4*1460 {
		t.Fatalf("initial window = %d", r.rcv.Window())
	}
	// Fill 3 of 4 MSS: window = 1 MSS, at the SWS threshold.
	for i := 0; i < 3; i++ {
		r.data(uint32(1+i*1460), 1460)
	}
	if w := r.rcv.Window(); w != 1460 {
		t.Fatalf("window = %d, want exactly 1 MSS", w)
	}
	// One more byte below a full MSS of space → advertise zero.
	r.data(uint32(1+3*1460), 100)
	if w := r.rcv.Window(); w != 0 {
		t.Errorf("window = %d, want 0 (silly-window avoidance)", w)
	}
	if r.rcv.Stats().ZeroWindowAcks == 0 {
		t.Error("no zero-window advertisement counted")
	}
}

func TestReceiverZeroWindowProbeResponse(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.InitRwnd = 2 * 1460
	cfg.BufSize = 2 * 1460
	cfg.ReadRate = 1
	r := newReceiverRig(cfg)
	r.data(1, 1460)
	r.data(1461, 1460) // buffer full → zero window
	n := len(r.acks)
	// Out-of-window probe (seq = snd_una − 1 = 2920).
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK, Seq: 2920, Len: 0})
	if len(r.acks) != n+1 {
		t.Fatal("probe not answered")
	}
	// An in-window bare ACK must NOT be answered (no ack loops).
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK, Seq: 2921, Len: 0})
	if len(r.acks) != n+1 {
		t.Error("bare in-window ACK was answered")
	}
}

func TestReceiverPauseAndDrainInstant(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.InitRwnd = 2 * 1460
	cfg.BufSize = 2 * 1460
	r := newReceiverRig(cfg)
	var delivered int
	r.rcv.OnDeliver = func(n int) { delivered += n }
	r.rcv.PauseReading(100 * time.Millisecond)
	r.data(1, 1460)
	r.data(1461, 1460)
	if delivered != 0 {
		t.Fatalf("delivered %d during pause", delivered)
	}
	if r.rcv.Window() != 0 {
		t.Fatalf("window = %d with full buffer", r.rcv.Window())
	}
	r.sim.RunFor(150 * time.Millisecond)
	if delivered != 2920 {
		t.Errorf("delivered = %d after unpause, want 2920", delivered)
	}
	if r.rcv.Window() != 2*1460 {
		t.Errorf("window = %d after drain", r.rcv.Window())
	}
	// The reopening must be advertised.
	if r.rcv.Stats().WindowUpdates == 0 {
		t.Error("no window update after drain")
	}
}

func TestReceiverOverlappingPauses(t *testing.T) {
	cfg := DefaultReceiverConfig()
	r := newReceiverRig(cfg)
	var delivered int
	r.rcv.OnDeliver = func(n int) { delivered += n }
	r.rcv.PauseReading(50 * time.Millisecond)
	r.sim.RunFor(20 * time.Millisecond)
	r.rcv.PauseReading(100 * time.Millisecond) // extends to t=120ms
	r.data(1, 1000)
	r.sim.RunFor(40 * time.Millisecond) // t=60ms: first pause expired
	if delivered != 0 {
		t.Fatalf("first pause's expiry unpaused despite overlap")
	}
	r.sim.RunFor(100 * time.Millisecond)
	if delivered != 1000 {
		t.Errorf("delivered = %d after all pauses", delivered)
	}
}

func TestReceiverScheduledReadPauses(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.ReadPauses = []ReadPause{{At: 10 * time.Millisecond, Dur: 50 * time.Millisecond}}
	r := newReceiverRig(cfg)
	var delivered int
	r.rcv.OnDeliver = func(n int) { delivered += n }
	r.sim.RunFor(20 * time.Millisecond) // pause active
	r.data(1, 500)
	if delivered != 0 {
		t.Fatal("delivered during scheduled pause")
	}
	r.sim.RunFor(60 * time.Millisecond)
	if delivered != 500 {
		t.Errorf("delivered = %d", delivered)
	}
}

func TestReceiverRateLimitedRead(t *testing.T) {
	cfg := DefaultReceiverConfig()
	cfg.ReadRate = 100_000 // 100KB/s
	cfg.ReadInterval = 10 * time.Millisecond
	r := newReceiverRig(cfg)
	var delivered int
	r.rcv.OnDeliver = func(n int) { delivered += n }
	r.data(1, 1460)
	r.data(1461, 1460)
	if delivered != 0 {
		t.Fatal("rate-limited read should not be instant")
	}
	r.sim.RunFor(15 * time.Millisecond)
	if delivered == 0 || delivered > 1100 {
		t.Errorf("delivered = %d after ~1 interval, want ≈1000", delivered)
	}
	r.sim.RunFor(100 * time.Millisecond)
	if delivered != 2920 {
		t.Errorf("delivered = %d total", delivered)
	}
}

func TestReceiverTimestampEcho(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	ts := sim.Time(123 * time.Millisecond)
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK, Seq: 1, Len: 1460, TSVal: ts})
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK, Seq: 1461, Len: 1460, TSVal: ts + 1})
	a := r.lastAck(t)
	// ts_recent = TSVal of the segment advancing the left edge.
	if a.TSEcr != ts+1 {
		t.Errorf("TSEcr = %v, want %v", a.TSEcr, ts+1)
	}
	// An out-of-order segment must NOT update ts_recent.
	r.rcv.HandleData(&trace.Segment{Flags: packet.FlagACK, Seq: 10000, Len: 100, TSVal: ts + 99})
	a = r.lastAck(t)
	if a.TSEcr != ts+1 {
		t.Errorf("ooo segment updated ts_recent: TSEcr = %v", a.TSEcr)
	}
}

func TestReceiverConfigDefaults(t *testing.T) {
	s := sim.New()
	r := NewReceiver(s, ReceiverConfig{MSS: 1460, InitRwnd: 1000}, 1)
	if r.cfg.BufSize != 1000 {
		t.Errorf("BufSize default = %d, want InitRwnd", r.cfg.BufSize)
	}
	if r.cfg.AckEvery != 2 || r.cfg.ReadInterval <= 0 {
		t.Error("defaults not applied")
	}
	defer func() {
		if recover() == nil {
			t.Error("MSS=0 should panic")
		}
	}()
	NewReceiver(s, ReceiverConfig{}, 1)
}

func TestReceiverStatsCounting(t *testing.T) {
	r := newReceiverRig(DefaultReceiverConfig())
	r.data(1, 1460)
	r.data(1461, 1460)
	r.data(5841, 1460) // ooo
	r.data(1, 1460)    // dup
	st := r.rcv.Stats()
	if st.SegmentsReceived != 4 {
		t.Errorf("SegmentsReceived = %d", st.SegmentsReceived)
	}
	if st.OutOfOrderSegments != 1 {
		t.Errorf("OutOfOrderSegments = %d", st.OutOfOrderSegments)
	}
	if st.DuplicateSegments != 1 {
		t.Errorf("DuplicateSegments = %d", st.DuplicateSegments)
	}
	if st.BytesReceived != 4*1460 {
		t.Errorf("BytesReceived = %d", st.BytesReceived)
	}
	if st.AcksSent == 0 {
		t.Error("AcksSent = 0")
	}
}
