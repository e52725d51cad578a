package mitigation

import (
	"testing"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// lab builds a 40ms-RTT connection with a drop plan keyed on distinct
// data-segment copies: dropPlan[seq ordinal] = how many leading
// copies of that distinct segment to swallow.
type lab struct {
	sim  *sim.Simulator
	conn *tcpsim.Conn
}

func newLab(seed int64, size int64, strategy tcpsim.Recovery, dropPlan map[int]int, mutate func(*tcpsim.ConnConfig)) *lab {
	s := sim.New()
	rng := sim.NewRNG(seed)
	down := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: size}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, nil)
	if strategy != nil {
		conn.Sender().SetRecovery(strategy)
	}
	// Interpose on the sender output to implement the drop plan.
	inner := conn.Sender().Output
	distinct := 0
	ordinalOf := map[uint32]int{}
	copies := map[uint32]int{}
	conn.Sender().Output = func(seg *trace.Segment) {
		if seg.Len > 0 {
			if _, ok := ordinalOf[seg.Seq]; !ok {
				distinct++
				ordinalOf[seg.Seq] = distinct
			}
			copies[seg.Seq]++
			if n, ok := dropPlan[ordinalOf[seg.Seq]]; ok && copies[seg.Seq] <= n {
				return // swallowed by the "network"
			}
		}
		inner(seg)
	}
	return &lab{sim: s, conn: conn}
}

func (l *lab) run(t *testing.T) *tcpsim.ConnMetrics {
	t.Helper()
	l.conn.Start()
	l.sim.Run()
	m := l.conn.Metrics()
	if !m.Done {
		t.Fatal("transfer did not complete")
	}
	return m
}

func TestNativeTailLossNeedsRTO(t *testing.T) {
	// 3-segment flow, last segment dropped once.
	l := newLab(1, 3*1460, nil, map[int]int{3: 1}, nil)
	m := l.run(t)
	if m.Sender.RTOFirings == 0 {
		t.Error("native: tail loss should require RTO")
	}
}

func TestTLPRecoversTailLossWithoutRTO(t *testing.T) {
	tlp := NewTLP(TLPConfig{WCDelAck: 50 * time.Millisecond})
	l := newLab(1, 3*1460, tlp, map[int]int{3: 1}, nil)
	m := l.run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("TLP: RTO fired %d times; probe should have recovered the tail", m.Sender.RTOFirings)
	}
	if tlp.Probes == 0 {
		t.Error("TLP sent no probes")
	}
	if m.Sender.ProbeRetransmits == 0 && m.Sender.DataSegmentsSent <= 3 {
		t.Error("no probe transmission recorded")
	}
}

func TestTLPFasterThanNativeOnTailLoss(t *testing.T) {
	nat := newLab(1, 3*1460, nil, map[int]int{3: 1}, nil).run(t)
	tlp := newLab(1, 3*1460, NewTLP(TLPConfig{WCDelAck: 50 * time.Millisecond}), map[int]int{3: 1}, nil).run(t)
	if tlp.FlowLatency() >= nat.FlowLatency() {
		t.Errorf("TLP latency %v not better than native %v", tlp.FlowLatency(), nat.FlowLatency())
	}
}

func TestSRTORecoversTailLossWithoutRTO(t *testing.T) {
	srto := NewSRTO(SRTOConfig{T1: 10, T2: 5})
	l := newLab(1, 3*1460, srto, map[int]int{3: 1}, nil)
	m := l.run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("S-RTO: RTO fired %d times", m.Sender.RTOFirings)
	}
	if srto.Triggers == 0 {
		t.Error("S-RTO never triggered")
	}
}

// The paper's central claim for S-RTO vs TLP: an f-double stall — a
// fast-retransmitted segment dropped again, sender in Recovery —
// is untouched by TLP (Open-state only) but mitigated by S-RTO.
func TestFDoubleTLPCannotHelp(t *testing.T) {
	// 15 KB flow; drop segment 8 twice (original + fast retransmit).
	nat := newLab(2, 15_000, nil, map[int]int{8: 2}, nil).run(t)
	if nat.Sender.RTOFirings == 0 {
		t.Fatal("native: f-double must need an RTO (test setup broken otherwise)")
	}
	tlp := newLab(2, 15_000, NewTLP(TLPConfig{WCDelAck: 50 * time.Millisecond}), map[int]int{8: 2}, nil).run(t)
	if tlp.Sender.RTOFirings == 0 {
		t.Error("TLP should NOT be able to avoid the f-double RTO (Open-state only)")
	}
}

func TestFDoubleSRTOHelps(t *testing.T) {
	srto := NewSRTO(SRTOConfig{T1: 10, T2: 5})
	m := newLab(2, 15_000, srto, map[int]int{8: 2}, nil).run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("S-RTO: RTO fired %d times on f-double; probe should have recovered", m.Sender.RTOFirings)
	}
	if srto.Triggers == 0 {
		t.Error("S-RTO never triggered")
	}
}

func TestSRTOLatencyBeatsTLPOnFDouble(t *testing.T) {
	tlp := newLab(2, 15_000, NewTLP(TLPConfig{WCDelAck: 50 * time.Millisecond}), map[int]int{8: 2}, nil).run(t)
	srto := newLab(2, 15_000, NewSRTO(SRTOConfig{}), map[int]int{8: 2}, nil).run(t)
	if srto.FlowLatency() >= tlp.FlowLatency() {
		t.Errorf("S-RTO %v should beat TLP %v on f-double stalls",
			srto.FlowLatency(), tlp.FlowLatency())
	}
}

func TestSRTOT1Gate(t *testing.T) {
	// With T1 = 1 the probe can never arm (packets_out ≥ 1 whenever
	// data is outstanding), so behaviour must match native.
	srto := NewSRTO(SRTOConfig{T1: 1, T2: 5})
	m := newLab(3, 3*1460, srto, map[int]int{3: 1}, nil).run(t)
	if srto.Triggers != 0 {
		t.Errorf("T1=1 should disable probing; got %d triggers", srto.Triggers)
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("with probing disabled the RTO must fire")
	}
}

func TestSRTOCwndHalvingGuard(t *testing.T) {
	// Trigger with a small cwnd (≤ T2): cwnd must not be halved.
	srto := NewSRTO(SRTOConfig{T1: 10, T2: 5})
	l := newLab(4, 3*1460, srto, map[int]int{3: 1}, nil)
	snd := l.conn.Sender()
	l.run(t)
	// cwnd after recovery from IW=3 tail loss stays ≥ 2.
	if snd.Cwnd() < 2 {
		t.Errorf("cwnd = %d after guarded trigger", snd.Cwnd())
	}
	if srto.Triggers == 0 {
		t.Fatal("expected a trigger")
	}
	if snd.State() == trace.StateLoss {
		t.Error("S-RTO should have kept the sender out of Loss state")
	}
}

func TestSRTOFallsBackToNativeRTOOnDoubleProbeLoss(t *testing.T) {
	// Drop the tail segment 3 times: original, then the S-RTO probe.
	// The third copy must come from the native RTO.
	srto := NewSRTO(SRTOConfig{T1: 10, T2: 5})
	m := newLab(5, 3*1460, srto, map[int]int{3: 2}, nil).run(t)
	if srto.Triggers != 1 {
		t.Errorf("S-RTO triggers = %d, want exactly 1 (no re-probe of the same head)", srto.Triggers)
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("native RTO must take over after the probe is lost")
	}
}

func TestTLPOneProbePerEpisode(t *testing.T) {
	// Black-holing the tail twice: TLP probes once, then the RTO
	// takes over.
	tlp := NewTLP(TLPConfig{WCDelAck: 50 * time.Millisecond})
	m := newLab(6, 3*1460, tlp, map[int]int{3: 2}, nil).run(t)
	if tlp.Probes != 1 {
		t.Errorf("TLP probes = %d, want 1", tlp.Probes)
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("RTO must fire after the probe is lost")
	}
}

func TestRetransmissionOverheadOrdering(t *testing.T) {
	// Across a lossy run, retransmission counts should order
	// native ≤ TLP ≤ S-RTO-ish (both probes add some overhead, as in
	// Table 9). Allow equality.
	loss := func() map[int]int { return map[int]int{5: 1, 12: 1} }
	nat := newLab(7, 60_000, nil, loss(), nil).run(t)
	tlp := newLab(7, 60_000, NewTLP(TLPConfig{}), loss(), nil).run(t)
	srto := newLab(7, 60_000, NewSRTO(SRTOConfig{}), loss(), nil).run(t)
	if tlp.Sender.Retransmissions < nat.Sender.Retransmissions {
		t.Errorf("TLP retrans %d < native %d", tlp.Sender.Retransmissions, nat.Sender.Retransmissions)
	}
	if srto.Sender.Retransmissions < nat.Sender.Retransmissions {
		t.Errorf("S-RTO retrans %d < native %d", srto.Sender.Retransmissions, nat.Sender.Retransmissions)
	}
}

// defaultStrategies builds one strategy of each Kind with defaults.
func defaultStrategies() map[Kind]tcpsim.Recovery {
	return map[Kind]tcpsim.Recovery{
		KindNative: tcpsim.NativeRecovery{},
		KindTLP:    NewTLP(TLPConfig{}),
		KindSRTO:   NewSRTO(SRTOConfig{}),
	}
}

// TestNewFactory checks that each constructor's strategy reports the
// Kind the experiment harness names it by.
func TestNewFactory(t *testing.T) {
	for kind, rec := range defaultStrategies() {
		if rec.Name() != string(kind) {
			t.Errorf("%s strategy is named %q", kind, rec.Name())
		}
	}
}

func TestStrategiesDoNotBreakCleanTransfers(t *testing.T) {
	for kind, rec := range defaultStrategies() {
		m := newLab(8, 200_000, rec, nil, nil).run(t)
		if m.Sender.RTOFirings != 0 {
			t.Errorf("%s: RTO on clean path", kind)
		}
		if m.Receiver.BytesReceived != 200_000 {
			t.Errorf("%s: received %d", kind, m.Receiver.BytesReceived)
		}
		// Spurious probe retransmissions on a clean path should be
		// zero: nothing stalls for 2·SRTT when ACKs flow.
		if m.Sender.ProbeRetransmits > 2 {
			t.Errorf("%s: %d probe retransmissions on a clean path", kind, m.Sender.ProbeRetransmits)
		}
	}
}

func TestSRTOHelpsAckDelayStall(t *testing.T) {
	// 500ms delayed ACK with an established RTT: native spuriously
	// RTO-retransmits (entering Loss, cwnd=1); S-RTO probes at 2·RTT
	// and avoids the Loss state entirely.
	mutate := func(c *tcpsim.ConnConfig) {
		c.Receiver.DelAckDelay = 500 * time.Millisecond
	}
	nat := newLab(9, 15*1460, nil, nil, mutate).run(t)
	if nat.Sender.RTOFirings == 0 {
		t.Fatal("native: expected a spurious RTO from the 500ms delack")
	}
	srto := NewSRTO(SRTOConfig{})
	m := newLab(9, 15*1460, srto, nil, mutate).run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("S-RTO: RTO fired %d times; probe should preempt it", m.Sender.RTOFirings)
	}
}

func TestNCLRecoversTailLossWithoutCwndReduction(t *testing.T) {
	ncl := NewNCL(NCLConfig{})
	l := newLab(20, 3*1460, ncl, map[int]int{3: 1}, nil)
	snd := l.conn.Sender()
	m := l.run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("NCL: RTO fired %d times", m.Sender.RTOFirings)
	}
	if ncl.Probes == 0 {
		t.Fatal("NCL never probed")
	}
	// Non-congestion assumption: no Loss state, no cwnd collapse.
	if snd.State() == trace.StateLoss {
		t.Error("NCL should not enter Loss")
	}
	if snd.Cwnd() < 2 {
		t.Errorf("cwnd = %d; NCL must not reduce the window", snd.Cwnd())
	}
}

func TestNCLOneProbeThenNativeRTO(t *testing.T) {
	ncl := NewNCL(NCLConfig{})
	m := newLab(21, 3*1460, ncl, map[int]int{3: 2}, nil).run(t)
	if ncl.Probes != 1 {
		t.Errorf("NCL probes = %d, want 1 (CD timer takes over)", ncl.Probes)
	}
	if m.Sender.RTOFirings == 0 {
		t.Error("native RTO must fire after the probe is lost")
	}
}

func TestNCLName(t *testing.T) {
	if NewNCL(NCLConfig{}).Name() != "tcp-ncl" {
		t.Error("name")
	}
}

func TestEarlyRetransmitStrategy(t *testing.T) {
	// 2-segment flow, first dropped: with ER the lone dupack triggers
	// fast retransmit instead of an RTO.
	var er EarlyRetransmit
	if er.Name() != "early-retransmit" {
		t.Error("name")
	}
	m := newLab(22, 2*1460, er, map[int]int{1: 1}, nil).run(t)
	if m.Sender.RTOFirings != 0 {
		t.Errorf("ER: RTO fired %d times, want fast retransmit", m.Sender.RTOFirings)
	}
	if m.Sender.FastRetransmits == 0 {
		t.Error("ER: no fast retransmit")
	}
	// Hook no-ops must not panic.
	er.OnSent(false)
	er.OnAck()
	er.OnRTO()
}

func TestNCLDoesNoHarmCleanPath(t *testing.T) {
	nat := newLab(23, 100_000, nil, nil, nil).run(t)
	ncl := newLab(23, 100_000, NewNCL(NCLConfig{}), nil, nil).run(t)
	if ncl.FlowLatency() > nat.FlowLatency() {
		t.Errorf("NCL %v slower than native %v on a clean path",
			ncl.FlowLatency(), nat.FlowLatency())
	}
	if ncl.Sender.Retransmissions != 0 {
		t.Errorf("NCL retransmitted %d on a clean path", ncl.Sender.Retransmissions)
	}
}
