package tcpsim

import (
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// senderRig wires a sender to a capture buffer with no network: the
// test plays the client by calling HandleAck directly.
type senderRig struct {
	sim  *sim.Simulator
	snd  *Sender
	sent []trace.Segment
}

func newSenderRig(cfg SenderConfig) *senderRig {
	s := sim.New()
	r := &senderRig{sim: s, snd: NewSender(s, cfg, 1)}
	r.snd.Output = func(seg *trace.Segment) {
		cp := *seg
		r.sent = append(r.sent, cp)
	}
	return r
}

// ackUpTo delivers a cumulative ACK for everything below seq.
func (r *senderRig) ackUpTo(seq uint32, wnd int) {
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: seq, Wnd: wnd})
}

// dupack delivers a duplicate ACK carrying one SACK block.
func (r *senderRig) dupack(ack uint32, wnd int, blocks ...packet.SACKBlock) {
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: ack, Wnd: wnd, SACK: packet.SACKBlocks(blocks...)})
}

func TestSenderWriteSegmentation(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(3000) // 1460 + 1460 + 80
	if got := len(r.sent); got != 3 {
		t.Fatalf("sent %d segments with IW=3, want 3", got)
	}
	if r.sent[0].Seq != 1 || r.sent[0].Len != 1460 {
		t.Errorf("seg0 = %+v", r.sent[0])
	}
	if r.sent[2].Len != 80 {
		t.Errorf("tail len = %d, want 80", r.sent[2].Len)
	}
	if r.snd.SndNxt() != 1+3000 {
		t.Errorf("SndNxt = %d", r.snd.SndNxt())
	}
}

func TestSenderTailCoalescing(t *testing.T) {
	// A short unsent tail segment absorbs a follow-up Write.
	cfg := DefaultSenderConfig()
	cfg.InitCwnd = 0 // hold everything back
	r := newSenderRig(cfg)
	r.snd.Write(100)
	r.snd.Write(200)
	if r.snd.nxtIdx == len(r.snd.segs) {
		t.Fatal("data should be pending")
	}
	// One coalesced 300-byte segment, not two tiny ones.
	if n := len(r.snd.segs); n != 1 {
		t.Fatalf("segments = %d, want 1 (coalesced)", n)
	}
	if r.snd.segs[0].len != 300 {
		t.Errorf("coalesced len = %d", r.snd.segs[0].len)
	}
}

func TestSenderCwndLimitsBurst(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.InitCwnd = 2
	r := newSenderRig(cfg)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(100_000)
	if len(r.sent) != 2 {
		t.Fatalf("IW=2 sent %d segments", len(r.sent))
	}
	// Each new cumulative ACK in slow start grows cwnd by 1 per
	// segment acked and releases more.
	r.ackUpTo(r.sent[1].Seq+uint32(r.sent[1].Len), 1<<20)
	// cwnd 2 → 4, nothing outstanding: 4 new segments.
	if len(r.sent) != 6 {
		t.Errorf("after first ACK sent total %d, want 6", len(r.sent))
	}
}

func TestSenderRwndLimits(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	// Peer advertises only 2 MSS.
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 2 * 1460})
	r.snd.Write(100_000)
	if len(r.sent) != 2 {
		t.Fatalf("rwnd 2 MSS: sent %d", len(r.sent))
	}
	if r.snd.rwnd != 2*1460 {
		t.Errorf("rwnd = %d", r.snd.rwnd)
	}
}

func TestSenderZeroWindowProbing(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1460})
	r.snd.Write(10_000)
	if len(r.sent) != 1 {
		t.Fatalf("sent %d", len(r.sent))
	}
	// ACK closes the window entirely.
	r.ackUpTo(1461, 0)
	r.sim.RunFor(10 * time.Second)
	st := r.snd.Stats()
	if st.ZeroWindowProbes == 0 {
		t.Fatal("no zero-window probes")
	}
	// Probes are out-of-window: seq = snd_una − 1.
	probe := r.sent[1]
	if probe.Len != 0 || probe.Seq != 1460 {
		t.Errorf("probe = %+v, want len 0 seq snd_una-1", probe)
	}
	// Window reopens: transmission resumes.
	before := len(r.sent)
	r.ackUpTo(1461, 1<<20)
	if len(r.sent) <= before {
		t.Error("no transmission after window update")
	}
}

func TestSenderFastRetransmitAtDupThresh(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(20 * 1460)
	firstEnd := uint32(1 + 1460)
	// Segment 1 (seq 1) is lost; SACKs arrive for segments above.
	r.dupack(1, 1<<20, packet.SACKBlock{Left: firstEnd, Right: firstEnd + 1460})
	if r.snd.State() != trace.StateDisorder {
		t.Fatalf("after 1 dupack state = %v", r.snd.State())
	}
	r.dupack(1, 1<<20, packet.SACKBlock{Left: firstEnd, Right: firstEnd + 2*1460})
	if r.snd.State() != trace.StateDisorder {
		t.Fatalf("after 2 dupacks state = %v", r.snd.State())
	}
	countBefore := r.snd.Stats().FastRetransmits
	r.dupack(1, 1<<20, packet.SACKBlock{Left: firstEnd, Right: firstEnd + 3*1460})
	if r.snd.State() != trace.StateRecovery {
		t.Fatalf("after 3 dupacks state = %v, want Recovery", r.snd.State())
	}
	if r.snd.Stats().FastRetransmits != countBefore+1 {
		t.Errorf("fast retransmits = %d", r.snd.Stats().FastRetransmits)
	}
	// The retransmission is of the head segment.
	last := r.sent[len(r.sent)-1]
	found := false
	for i := len(r.sent) - 1; i >= 0; i-- {
		if r.sent[i].Seq == 1 && r.sent[i].Len == 1460 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("head not retransmitted; last sent %+v", last)
	}
}

func TestSenderLimitedTransmit(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.InitCwnd = 4
	r := newSenderRig(cfg)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(40 * 1460)
	sentBefore := len(r.sent) // 4 (IW)
	// First dupack → limited transmit sends 1 new segment.
	r.dupack(1, 1<<20, packet.SACKBlock{Left: 1461, Right: 2921})
	if len(r.sent) != sentBefore+1 {
		t.Errorf("after dupack 1: sent %d, want %d", len(r.sent), sentBefore+1)
	}
	newest := r.sent[len(r.sent)-1]
	if newest.Seq <= r.sent[sentBefore-1].Seq {
		t.Error("limited transmit should send NEW data")
	}
}

func TestSenderRTOFormulaKernelStyle(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	// Feed a stable 100ms RTT: RTO must converge to SRTT + 200ms
	// (variance term floored), not to the 200ms floor itself.
	for i := 0; i < 50; i++ {
		r.snd.SeedRTT(100 * time.Millisecond)
	}
	rto := r.snd.RTO()
	if rto < 290*time.Millisecond || rto > 320*time.Millisecond {
		t.Errorf("RTO = %v, want ≈300ms (SRTT+200ms)", rto)
	}
	if r.snd.SRTT() < 95*time.Millisecond || r.snd.SRTT() > 105*time.Millisecond {
		t.Errorf("SRTT = %v", r.snd.SRTT())
	}
	if r.snd.RTTSamples() != 50 {
		t.Errorf("RTTSamples = %d", r.snd.RTTSamples())
	}
}

func TestSenderRTOBackoffAndExpiry(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	r.snd.SeedRTT(50 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(1460)
	rto1 := r.snd.RTO()
	r.sim.RunFor(rto1 + time.Millisecond)
	if r.snd.Stats().RTOFirings != 1 {
		t.Fatalf("RTO firings = %d", r.snd.Stats().RTOFirings)
	}
	if r.snd.State() != trace.StateLoss {
		t.Errorf("state = %v, want Loss", r.snd.State())
	}
	if r.snd.Cwnd() != 1 {
		t.Errorf("cwnd = %d, want 1", r.snd.Cwnd())
	}
	if r.snd.RTO() < 2*rto1 {
		t.Errorf("RTO after firing = %v, want ≥ 2×%v", r.snd.RTO(), rto1)
	}
	if !r.snd.FirstUnackedRTORetransmitted() {
		t.Error("head should be flagged RTO-retransmitted")
	}
}

func TestSenderDSACKUndo(t *testing.T) {
	// A spurious RTO (data delayed, not lost): the DSACK must restore
	// cwnd and return the state to Open.
	r := newSenderRig(DefaultSenderConfig())
	r.snd.SeedRTT(50 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(3 * 1460)
	r.ackUpTo(1461, 1<<20)
	cwndBefore := r.snd.Cwnd()
	// Let the timer expire exactly once (backoff retransmissions
	// would each need their own DSACK for the undo to engage).
	r.sim.RunFor(r.snd.RTO() + 5*time.Millisecond)
	if r.snd.State() != trace.StateLoss {
		t.Fatalf("state = %v", r.snd.State())
	}
	if r.snd.Stats().RTOFirings != 1 {
		t.Fatalf("RTO firings = %d, want exactly 1", r.snd.Stats().RTOFirings)
	}
	// Late ACK covers everything and DSACKs the spurious copy.
	r.snd.HandleAck(&trace.Segment{
		Flags: packet.FlagACK, Ack: 1 + 3*1460, Wnd: 1 << 20,
		SACK: packet.SACKBlocks(packet.SACKBlock{Left: 1461, Right: 2921}), // below ack ⇒ DSACK
	})
	if r.snd.Stats().SpuriousRetrans == 0 {
		t.Error("spurious retransmission not detected")
	}
	if r.snd.State() != trace.StateOpen {
		t.Errorf("state = %v after undo, want Open", r.snd.State())
	}
	if r.snd.Cwnd() < cwndBefore {
		t.Errorf("cwnd = %d after undo, want ≥ %d", r.snd.Cwnd(), cwndBefore)
	}
}

func TestSenderRecoveryExitNeverRaisesCwnd(t *testing.T) {
	// Entering Recovery externally (S-RTO) leaves ssthresh at its
	// initial huge value; exiting must not explode cwnd.
	r := newSenderRig(DefaultSenderConfig())
	r.snd.SeedRTT(50 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(10 * 1460)
	r.snd.EnterRecoveryExternal()
	if r.snd.State() != trace.StateRecovery {
		t.Fatal("not in recovery")
	}
	cwnd := r.snd.Cwnd()
	r.ackUpTo(1+10*1460, 1<<20)
	if r.snd.State() != trace.StateOpen {
		t.Fatalf("state = %v", r.snd.State())
	}
	if r.snd.Cwnd() > cwnd+10 {
		t.Errorf("cwnd exploded on recovery exit: %d → %d", cwnd, r.snd.Cwnd())
	}
}

func TestSenderEquation1Accessors(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(5 * 1460)
	if r.snd.PacketsOut() != 3 { // IW
		t.Fatalf("PacketsOut = %d", r.snd.PacketsOut())
	}
	if r.snd.InFlight() != 3 {
		t.Errorf("InFlight = %d", r.snd.InFlight())
	}
	// SACK one: in_flight drops, packets_out unchanged.
	r.dupack(1, 1<<20, packet.SACKBlock{Left: 1461, Right: 2921})
	if r.snd.PacketsOut() < 3 {
		t.Errorf("PacketsOut = %d after SACK", r.snd.PacketsOut())
	}
	if r.snd.InFlight() >= r.snd.PacketsOut() {
		t.Errorf("InFlight %d should be below PacketsOut %d after SACK",
			r.snd.InFlight(), r.snd.PacketsOut())
	}
	if !r.snd.HasOutstanding() {
		t.Error("HasOutstanding")
	}
	if r.snd.SndUna() != 1 {
		t.Errorf("SndUna = %d", r.snd.SndUna())
	}
}

func TestSenderAdaptiveDupThresh(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.InitCwnd = 10
	r := newSenderRig(cfg)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(10 * 1460)
	// SACK segments 4..8 first, then segment 1 arrives late (SACKed):
	// reordering extent ≥ 3 should raise dupThresh above 3.
	r.dupack(1, 1<<20, packet.SACKBlock{Left: 1 + 3*1460, Right: 1 + 8*1460})
	before := r.snd.dupThresh
	r.dupack(1, 1<<20, packet.SACKBlock{Left: 1 + 1*1460, Right: 1 + 2*1460})
	if r.snd.dupThresh <= before && r.snd.dupThresh == 3 {
		t.Errorf("dupThresh = %d, want adapted above 3", r.snd.dupThresh)
	}
}

func TestSenderAccessorsMisc(t *testing.T) {
	r := newSenderRig(DefaultSenderConfig())
	if r.snd.Sim() != r.sim {
		t.Error("Sim()")
	}
	r.snd.SetCwnd(0)
	if r.snd.Cwnd() != 1 {
		t.Errorf("SetCwnd clamps to 1, got %d", r.snd.Cwnd())
	}
	r.snd.SetRecovery(nil) // resets to native; must not panic
	seg := trace.Segment{Flags: packet.FlagACK, Seq: 9, Len: 5, Ack: 2, Wnd: 7}
	if seg.String() == "" {
		t.Error("Segment.String empty")
	}
	var nr NativeRecovery
	if nr.Name() != "linux" {
		t.Error("native recovery name")
	}
	nr.Attach(nil)
	nr.OnSent(false)
	nr.OnAck()
	nr.OnRTO()
}

func TestSenderMSSValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MSS=0 should panic")
		}
	}()
	NewSender(sim.New(), SenderConfig{}, 1)
}

func TestSenderPacingSpacesTransmissions(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.Pacing = true
	cfg.InitCwnd = 4
	r := newSenderRig(cfg)
	r.snd.SeedRTT(100 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})

	var sentAt []sim.Time
	inner := r.snd.Output
	r.snd.Output = func(seg *trace.Segment) {
		sentAt = append(sentAt, r.sim.Now())
		inner(seg)
	}
	r.snd.Write(4 * 1460)
	// Stop before the (unacknowledged) RTO fires at ≈300ms.
	r.sim.RunFor(120 * time.Millisecond)
	if len(sentAt) != 4 {
		t.Fatalf("sent %d segments", len(sentAt))
	}
	// gap = SRTT/cwnd = 100ms/4 = 25ms between transmissions.
	for i := 1; i < len(sentAt); i++ {
		gap := sentAt[i].Sub(sentAt[i-1])
		if gap < 20*time.Millisecond || gap > 30*time.Millisecond {
			t.Errorf("pacing gap %d = %v, want ≈25ms", i, gap)
		}
	}
}

func TestSenderPacingCompletesTransfer(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.Pacing = true
	r := newSenderRig(cfg)
	r.snd.SeedRTT(40 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(50 * 1460)
	// Ack everything the pacer sends, repeatedly.
	for i := 0; i < 200; i++ {
		r.sim.RunFor(50 * time.Millisecond)
		if n := len(r.sent); n > 0 {
			last := r.sent[n-1]
			if last.Len > 0 {
				r.ackUpTo(last.Seq+uint32(last.Len), 1<<20)
			}
		}
		if r.snd.unaIdx == len(r.snd.segs) {
			break
		}
	}
	if r.snd.unaIdx != len(r.snd.segs) {
		t.Fatal("paced transfer did not complete")
	}
}

func TestSenderSlowStartAfterIdle(t *testing.T) {
	cfg := DefaultSenderConfig()
	r := newSenderRig(cfg)
	r.snd.SeedRTT(50 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	// Grow the window with a first response.
	r.snd.Write(30 * 1460)
	for r.snd.HasOutstanding() {
		last := r.sent[len(r.sent)-1]
		r.sim.RunFor(10 * time.Millisecond)
		r.ackUpTo(last.Seq+uint32(last.Len), 1<<20)
	}
	grown := r.snd.Cwnd()
	if grown <= DefaultSenderConfig().InitCwnd {
		t.Fatalf("cwnd did not grow: %d", grown)
	}
	// Idle well past the RTO, then serve another response: the
	// window must restart from IW.
	r.sim.RunFor(5 * time.Second)
	before := len(r.sent)
	r.snd.Write(20 * 1460)
	burst := len(r.sent) - before
	if burst != DefaultSenderConfig().InitCwnd {
		t.Errorf("burst after idle = %d segments, want IW=%d", burst, DefaultSenderConfig().InitCwnd)
	}
}

func TestSenderNoIdleRestartWhenDisabled(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.SlowStartAfterIdle = false
	r := newSenderRig(cfg)
	r.snd.SeedRTT(50 * time.Millisecond)
	r.snd.HandleAck(&trace.Segment{Flags: packet.FlagACK, Ack: 1, Wnd: 1 << 20})
	r.snd.Write(30 * 1460)
	for r.snd.HasOutstanding() {
		last := r.sent[len(r.sent)-1]
		r.sim.RunFor(10 * time.Millisecond)
		r.ackUpTo(last.Seq+uint32(last.Len), 1<<20)
	}
	grown := r.snd.Cwnd()
	r.sim.RunFor(5 * time.Second)
	before := len(r.sent)
	r.snd.Write(40 * 1460)
	burst := len(r.sent) - before
	if burst < grown {
		t.Errorf("burst after idle = %d, want the grown window %d", burst, grown)
	}
}
