package tcpsim

import (
	"testing"
	"testing/quick"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// recSink captures trace records for assertions.
type recSink struct {
	recs []traceRec
}

type traceRec struct {
	t   sim.Time
	dir trace.Dir
	seg trace.Segment
}

func (r *recSink) Record(t sim.Time, dir trace.Dir, seg trace.Segment) {
	r.recs = append(r.recs, traceRec{t, dir, seg})
}

type harness struct {
	sim  *sim.Simulator
	conn *Conn
	down *netem.Path
	up   *netem.Path
	sink *recSink
}

type harnessOpt func(*ConnConfig, *netem.Config, *netem.Config)

func withDownLoss(m netem.LossModel) harnessOpt {
	return func(_ *ConnConfig, d, _ *netem.Config) { d.Loss = m }
}

func withUpLoss(m netem.LossModel) harnessOpt {
	return func(_ *ConnConfig, _, u *netem.Config) { u.Loss = m }
}

func withConn(f func(*ConnConfig)) harnessOpt {
	return func(c *ConnConfig, _, _ *netem.Config) { f(c) }
}

// newHarness builds a 40ms-RTT connection serving the given
// responses.
func newHarness(seed int64, reqs []Request, opts ...harnessOpt) *harness {
	s := sim.New()
	rng := sim.NewRNG(seed)
	cfg := ConnConfig{
		Sender:   DefaultSenderConfig(),
		Receiver: DefaultReceiverConfig(),
		Requests: reqs,
	}
	downCfg := netem.Config{Delay: 20 * time.Millisecond}
	upCfg := netem.Config{Delay: 20 * time.Millisecond}
	for _, o := range opts {
		o(&cfg, &downCfg, &upCfg)
	}
	down := netem.New(s, rng, downCfg)
	up := netem.New(s, rng, upCfg)
	sink := &recSink{}
	conn := NewLinkedConn(s, cfg, down, up, sink)
	return &harness{sim: s, conn: conn, down: down, up: up, sink: sink}
}

func (h *harness) run(t *testing.T) *ConnMetrics {
	t.Helper()
	h.conn.Start()
	h.sim.Run()
	return h.conn.Metrics()
}

func oneReq(size int64) []Request { return []Request{{Size: size}} }

func TestCleanTransfer(t *testing.T) {
	h := newHarness(1, oneReq(100_000))
	m := h.run(t)
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	if m.Sender.Retransmissions != 0 {
		t.Errorf("retransmissions = %d on a clean path", m.Sender.Retransmissions)
	}
	if m.Receiver.BytesReceived != 100_000 {
		t.Errorf("received %d bytes", m.Receiver.BytesReceived)
	}
	if m.Sender.RTOFirings != 0 {
		t.Errorf("RTO fired %d times on a clean path", m.Sender.RTOFirings)
	}
	lat := m.FlowLatency()
	if lat <= 0 || lat > 5*time.Second {
		t.Errorf("flow latency = %v", lat)
	}
}

func TestHandshakeRTT(t *testing.T) {
	h := newHarness(1, oneReq(1000))
	m := h.run(t)
	// SYN (20ms) + SYN-ACK (20ms) = established at 40ms.
	if m.EstablishedAt != sim.Time(40*time.Millisecond) {
		t.Errorf("established at %v, want 40ms", m.EstablishedAt)
	}
}

func TestSingleLossFastRetransmit(t *testing.T) {
	// Drop one data segment in the middle of a large window; SACK
	// dupacks must trigger fast retransmit, not RTO.
	// Downlink packet order: SYN-ACK(0), req-ACK(1), then data...
	h := newHarness(2, oneReq(200_000), withDownLoss(netem.DropList(30)))
	m := h.run(t)
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	if m.Sender.FastRetransmits == 0 {
		t.Error("no fast retransmit recorded")
	}
	if m.Sender.RTOFirings != 0 {
		t.Errorf("RTO fired %d times; loss should be recovered fast", m.Sender.RTOFirings)
	}
	if m.Receiver.BytesReceived < 200_000 {
		t.Errorf("received %d bytes", m.Receiver.BytesReceived)
	}
}

func TestTailLossRequiresRTO(t *testing.T) {
	// Flow of 3 segments (IW=3, all sent at once); drop the last.
	// No further data ⇒ no dupacks ⇒ timeout retransmission.
	h := newHarness(3, oneReq(3*1460), withDownLoss(netem.DropList(4)))
	m := h.run(t)
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("tail loss should force an RTO")
	}
	if m.Sender.FastRetransmits != 0 {
		t.Errorf("unexpected fast retransmits: %d", m.Sender.FastRetransmits)
	}
}

// dropCopies wires a harness so that transmissions of the chosen
// distinct data segment (ordinal-th new sequence seen) are dropped
// for the first `copies` copies.
func dropCopies(h *harness, ordinal, copies int) {
	inner := h.conn.snd.Output
	distinct := 0
	var target uint32
	haveTarget := false
	perSeq := map[uint32]int{}
	h.conn.snd.Output = func(seg *trace.Segment) {
		if seg.Len > 0 {
			if perSeq[seg.Seq] == 0 {
				distinct++
				if distinct == ordinal {
					target = seg.Seq
					haveTarget = true
				}
			}
			perSeq[seg.Seq]++
			if haveTarget && seg.Seq == target && perSeq[seg.Seq] <= copies {
				// Swallowed by the "network": record it as the server
				// NIC would have, but never deliver.
				seg.Ack = uint32(h.conn.srvRcvNxt)
				seg.Wnd = h.conn.srvWnd
				h.conn.record(trace.DirOut, seg)
				return
			}
		}
		inner(seg)
	}
}

func TestFDoubleRetransmissionNeedsRTO(t *testing.T) {
	// Drop a middle segment AND its fast retransmission: the second
	// copy can only be recovered by timeout (the paper's f-double
	// stall, Figure 9).
	h := newHarness(4, oneReq(60_000))
	dropCopies(h, 10, 2)
	m := h.run(t)
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("double loss of the same segment must end in RTO")
	}
	if m.Sender.FastRetransmits == 0 {
		t.Error("first recovery should have been a fast retransmit")
	}
}

func TestZeroWindowStallAndRecovery(t *testing.T) {
	h := newHarness(5, oneReq(50_000), withConn(func(c *ConnConfig) {
		c.Receiver.InitRwnd = 4 * 1460
		c.Receiver.BufSize = 4 * 1460
		// Under one MSS per RTT: SWS avoidance forces zero-window
		// advertisements.
		c.Receiver.ReadRate = 20_000
		c.Receiver.ReadInterval = 5 * time.Millisecond
	}))
	// A mid-transfer app pause closes the window outright for 300ms.
	h.sim.Schedule(500*time.Millisecond, func() {
		h.conn.Receiver().PauseReading(300 * time.Millisecond)
	})
	m := h.run(t)
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	if m.Receiver.ZeroWindowAcks == 0 {
		t.Error("expected zero-window advertisements with a tiny slow-drained buffer")
	}
	if m.Receiver.BytesReceived < 50_000 {
		t.Errorf("received %d bytes", m.Receiver.BytesReceived)
	}
}

func TestDelayedAckSingleSegment(t *testing.T) {
	// A 1-segment response: the client must hold the ACK for the
	// delayed-ACK timer, then release it.
	h := newHarness(6, oneReq(500), withConn(func(c *ConnConfig) {
		c.Receiver.DelAckDelay = 100 * time.Millisecond
	}))
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	// Latency = req(20) + data(20) + delack(100) + ack(20) ≈ 160ms.
	lat := m.FlowLatency()
	if lat < 150*time.Millisecond || lat > 200*time.Millisecond {
		t.Errorf("latency = %v, want ≈160ms (delayed ACK)", lat)
	}
	if m.Sender.RTOFirings != 0 {
		t.Error("delayed ack below RTO must not cause retransmission")
	}
}

func TestAckDelayBeyondRTOCausesSpuriousRetrans(t *testing.T) {
	// Delayed-ACK (500ms) far above min-RTO: once the SRTT is
	// established (RTO ≈ 200ms floor), an odd tail segment whose ACK
	// the client holds for 500ms forces a spurious timeout
	// retransmission, which the client DSACKs. 15 segments ensure an
	// odd tail arrival.
	h := newHarness(7, oneReq(15*1460), withConn(func(c *ConnConfig) {
		c.Receiver.DelAckDelay = 500 * time.Millisecond
	}))
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("500ms delack must beat the RTO")
	}
	if m.Receiver.DSACKsSent == 0 {
		t.Error("client should have DSACKed the spurious retransmission")
	}
	if m.Sender.SpuriousRetrans == 0 {
		t.Error("sender should have counted a spurious retransmission via DSACK")
	}
}

func TestMultipleRequestsClientIdle(t *testing.T) {
	reqs := []Request{
		{Size: 20_000},
		{IdleBefore: 300 * time.Millisecond, Size: 20_000},
		{IdleBefore: 500 * time.Millisecond, Size: 20_000},
	}
	h := newHarness(8, reqs)
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	if len(m.RequestSentAt) != 3 || len(m.RequestDoneAt) != 3 {
		t.Fatalf("request bookkeeping: %d/%d", len(m.RequestSentAt), len(m.RequestDoneAt))
	}
	if m.BytesServed != 60_000 {
		t.Errorf("served %d bytes", m.BytesServed)
	}
	// Idle gaps must show up between request completions. The gap
	// seen at the server is the 300ms think time minus the ACK's
	// travel (~20ms) and any delayed-ACK holdback (~40ms).
	gap := m.RequestSentAt[1].Sub(m.RequestDoneAt[0])
	if gap < 200*time.Millisecond {
		t.Errorf("idle gap before request 2 = %v, want ≥ ~240ms", gap)
	}
}

func TestDataUnavailableHeadDelay(t *testing.T) {
	h := newHarness(9, []Request{{Size: 10_000, HeadDelay: 400 * time.Millisecond}})
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	if lat := m.FlowLatency(); lat < 400*time.Millisecond {
		t.Errorf("latency %v should include the 400ms head delay", lat)
	}
}

func TestResourceConstraintPause(t *testing.T) {
	h := newHarness(10, []Request{{
		Size:   30_000,
		Pauses: []AppPause{{AfterBytes: 10_000, Duration: 300 * time.Millisecond}},
	}})
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	if lat := m.FlowLatency(); lat < 300*time.Millisecond {
		t.Errorf("latency %v should include the 300ms pause", lat)
	}
	if m.Receiver.BytesReceived < 30_000 {
		t.Errorf("received %d", m.Receiver.BytesReceived)
	}
}

func TestRequestLossClientRetransmits(t *testing.T) {
	// Uplink drop of the first request (packet index: SYN=0,
	// handshake-ACK=1, request=2).
	h := newHarness(11, oneReq(5000), withUpLoss(netem.DropList(2)))
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete despite client request retransmission")
	}
}

func TestSYNLossHandshakeRetry(t *testing.T) {
	h := newHarness(12, oneReq(5000), withUpLoss(netem.DropList(0)))
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete")
	}
	// SYN retransmitted after ~1s: established ≈ 1s + 40ms.
	if m.EstablishedAt < sim.Time(time.Second) {
		t.Errorf("established at %v, want ≥1s (SYN retry)", m.EstablishedAt)
	}
}

func TestAckLossTolerated(t *testing.T) {
	// Heavy ACK loss on the uplink: cumulative ACKs cover the gaps.
	h := newHarness(13, oneReq(100_000), withUpLoss(netem.Bernoulli{P: 0.2}))
	m := h.run(t)
	if !m.Done {
		t.Fatal("did not complete under 20% ACK loss")
	}
	if m.Receiver.BytesReceived < 100_000 {
		t.Errorf("received %d", m.Receiver.BytesReceived)
	}
}

func TestTraceRecordsBothDirections(t *testing.T) {
	h := newHarness(14, oneReq(10_000))
	h.run(t)
	var in, out, syn, data int
	for _, r := range h.sink.recs {
		switch r.dir {
		case trace.DirIn:
			in++
		case trace.DirOut:
			out++
		}
		if r.seg.Flags.Has(packet.FlagSYN) {
			syn++
		}
		if r.dir == trace.DirOut && r.seg.Len > 0 {
			data++
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("trace in=%d out=%d", in, out)
	}
	if syn < 2 {
		t.Errorf("handshake records = %d, want SYN + SYN-ACK", syn)
	}
	if want := (10_000 + 1459) / 1460; data != want {
		t.Errorf("data records = %d, want %d", data, want)
	}
}

func TestReproducibility(t *testing.T) {
	run := func() (time.Duration, int, int) {
		h := newHarness(99, oneReq(500_000), withDownLoss(netem.Bernoulli{P: 0.03}))
		m := h.run(t)
		return m.FlowLatency(), m.Sender.Retransmissions, len(h.sink.recs)
	}
	l1, r1, n1 := run()
	l2, r2, n2 := run()
	if l1 != l2 || r1 != r2 || n1 != n2 {
		t.Errorf("same seed diverged: (%v,%d,%d) vs (%v,%d,%d)", l1, r1, n1, l2, r2, n2)
	}
}

func TestCwndGrowsInSlowStart(t *testing.T) {
	h := newHarness(15, oneReq(300_000))
	snd := h.conn.Sender()
	h.run(t)
	if snd.Cwnd() <= DefaultSenderConfig().InitCwnd {
		t.Errorf("cwnd = %d never grew beyond IW", snd.Cwnd())
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	// Black-hole the downlink after the handshake: successive RTO
	// firings must be spaced exponentially.
	h := newHarness(16, oneReq(1460), withConn(func(c *ConnConfig) {
		c.Deadline = 30 * time.Second
	}))
	dropAll := false
	inner := h.conn.snd.Output
	var firings []sim.Time
	h.conn.snd.Output = func(seg *trace.Segment) {
		if dropAll && seg.Len > 0 {
			firings = append(firings, h.sim.Now())
			return
		}
		inner(seg)
	}
	h.sim.Schedule(30*time.Millisecond, func() { dropAll = true })
	h.conn.Start()
	h.sim.Run()
	if len(firings) < 4 {
		t.Fatalf("only %d retransmissions seen", len(firings))
	}
	g1 := firings[2].Sub(firings[1])
	g2 := firings[3].Sub(firings[2])
	if g2 < g1*3/2 {
		t.Errorf("backoff gaps %v then %v: not exponential", g1, g2)
	}
}

func TestEquation1Invariant(t *testing.T) {
	// in_flight per Equation 1 stays within [0, cwnd+dupthresh] and
	// the counters never go negative across a lossy transfer.
	h := newHarness(17, oneReq(400_000), withDownLoss(netem.Bernoulli{P: 0.05}))
	snd := h.conn.Sender()
	bad := 0
	inner := h.conn.snd.Output
	h.conn.snd.Output = func(seg *trace.Segment) {
		sacked, lost, retrans := snd.counters()
		if sacked < 0 || lost < 0 || retrans < 0 {
			bad++
		}
		if snd.PacketsOut() < 0 {
			bad++
		}
		inner(seg)
	}
	h.conn.Start()
	h.sim.Run()
	if bad != 0 {
		t.Errorf("%d invariant violations", bad)
	}
	if !h.conn.Metrics().Done {
		t.Fatal("did not complete")
	}
}

// Property: transfers complete and deliver exactly the written bytes
// under arbitrary loss rates up to 15% in both directions.
func TestPropertyLossyTransferCompletes(t *testing.T) {
	f := func(seed int64, sizeK uint16, lossDownPct, lossUpPct uint8) bool {
		size := int64(sizeK%512)*1000 + 1 // 1 B .. 512 KB
		pd := float64(lossDownPct%16) / 100
		pu := float64(lossUpPct%16) / 100
		h := newHarness(seed, oneReq(size),
			withDownLoss(netem.Bernoulli{P: pd}),
			withUpLoss(netem.Bernoulli{P: pu}),
			withConn(func(c *ConnConfig) { c.Deadline = 280 * time.Second }))
		m := h.run(t)
		if !m.Done {
			return false
		}
		return h.conn.deliveredSz == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEarlyRetransmitLowersThreshold(t *testing.T) {
	// 2-segment flow, drop the first: without ER this needs an RTO
	// (only 1 dupack possible); with ER the single dupack triggers
	// fast retransmit.
	run := func(er bool) SenderStats {
		h := newHarness(18, oneReq(2*1460), withDownLoss(netem.DropList(2)),
			withConn(func(c *ConnConfig) { c.Sender.EarlyRetransmit = er }))
		m := h.run(t)
		if !m.Done {
			t.Fatal("did not complete")
		}
		return m.Sender
	}
	without := run(false)
	if without.RTOFirings == 0 {
		t.Error("without ER: expected RTO")
	}
	with := run(true)
	if with.RTOFirings != 0 {
		t.Errorf("with ER: RTO fired %d times, want fast retransmit", with.RTOFirings)
	}
	if with.FastRetransmits == 0 {
		t.Error("with ER: no fast retransmit")
	}
}

func TestReorderingAdaptiveDupThresh(t *testing.T) {
	// A lossless but reordering path: with the adaptive threshold the
	// sender should produce far fewer spurious retransmissions than
	// with the fixed threshold of 3.
	run := func(adapt bool) int {
		s := sim.New()
		rng := sim.NewRNG(42)
		down := netem.New(s, rng, netem.Config{
			Delay: 20 * time.Millisecond, ReorderProb: 0.08,
			ReorderExtra: 15 * time.Millisecond,
		})
		up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
		cfg := ConnConfig{
			Sender:   DefaultSenderConfig(),
			Receiver: DefaultReceiverConfig(),
			Requests: oneReq(600_000),
		}
		cfg.Sender.AdaptDupThresh = adapt
		conn := NewLinkedConn(s, cfg, down, up, nil)
		conn.Start()
		s.Run()
		if !conn.Metrics().Done {
			t.Fatal("did not complete")
		}
		return conn.Metrics().Sender.Retransmissions
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive > fixed {
		t.Errorf("adaptive dupthres retransmitted more (%d) than fixed (%d)", adaptive, fixed)
	}
}

func TestSenderPanicsWithoutOutput(t *testing.T) {
	s := sim.New()
	snd := NewSender(s, DefaultSenderConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	snd.Write(100)
}

func TestSegmentHelpers(t *testing.T) {
	s := trace.Segment{Flags: packet.FlagSYN, Seq: 0}
	if s.End() != 1 {
		t.Errorf("SYN End = %d", s.End())
	}
	d := trace.Segment{Flags: packet.FlagACK, Seq: 100, Len: 50}
	if d.End() != 150 {
		t.Errorf("data End = %d", d.End())
	}
	if wireSize(&d) != 14+20+20+50 {
		t.Errorf("WireSize = %d", wireSize(&d))
	}
	withSack := trace.Segment{SACK: packet.SACKBlocks(packet.SACKBlock{Left: 1, Right: 2})}
	if wireSize(&withSack) <= 54 {
		t.Errorf("SACK wire size = %d", wireSize(&withSack))
	}
	if trace.DirOut.String() != "out" || trace.DirIn.String() != "in" {
		t.Error("Dir strings")
	}
	if trace.StateOpen.String() != "Open" || trace.StateLoss.String() != "Loss" ||
		trace.StateDisorder.String() != "Disorder" || trace.StateRecovery.String() != "Recovery" {
		t.Error("state strings")
	}
}
