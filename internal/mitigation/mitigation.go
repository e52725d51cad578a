// Package mitigation implements the loss-recovery strategies the
// paper evaluates on production servers: S-RTO (the paper's
// contribution, Algorithm 1), TLP (Tail Loss Probe, the comparator)
// and the native Linux behaviour (a no-op over the simulator's
// built-in RFC 6298 + fast retransmit machinery).
//
// Strategies attach to a tcpsim.Sender and manage their own probe
// timers, mirroring the paper's deployment where the kernel switched
// strategy via sysctl.
package mitigation

import (
	"time"

	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// Kind names a strategy for harness switching.
type Kind string

// The strategies of Tables 8 and 9.
const (
	KindNative Kind = "linux"
	KindTLP    Kind = "tlp"
	KindSRTO   Kind = "srto"
)

// --- TLP ---

// TLPConfig parameterizes the Tail Loss Probe.
type TLPConfig struct {
	// MinPTO floors the probe timeout (10ms per the TLP design).
	MinPTO time.Duration
	// WCDelAck is the worst-case delayed-ACK allowance added when a
	// single segment is outstanding.
	WCDelAck time.Duration
}

// TLP is the Tail Loss Probe: when the sender is in the Open state
// with outstanding data and nothing happens for ~2·SRTT, transmit one
// probe (new data if available, else the last segment) to buy a
// SACK/ACK that converts a would-be timeout into fast recovery. TLP
// is Open-state-only, which is exactly why it cannot mitigate the
// paper's f-double stalls (the sender sits in Recovery).
type TLP struct {
	cfg   TLPConfig
	snd   *tcpsim.Sender
	timer *sim.Timer
	// fired tracks that a probe was already sent in this episode; at
	// most one probe per flight.
	fired bool
	// Probes counts transmitted probes.
	Probes int
}

// NewTLP builds a TLP strategy.
func NewTLP(cfg TLPConfig) *TLP {
	if cfg.MinPTO <= 0 {
		cfg.MinPTO = 10 * time.Millisecond
	}
	if cfg.WCDelAck <= 0 {
		cfg.WCDelAck = 200 * time.Millisecond
	}
	return &TLP{cfg: cfg}
}

// Name implements tcpsim.Recovery.
func (t *TLP) Name() string { return string(KindTLP) }

// Attach implements tcpsim.Recovery.
func (t *TLP) Attach(s *tcpsim.Sender) {
	t.snd = s
	t.timer = sim.NewTimer(s.Sim(), t.onPTO)
}

func (t *TLP) pto() time.Duration {
	srtt := t.snd.SRTT()
	if srtt <= 0 {
		return t.snd.RTO()
	}
	pto := 2 * srtt
	if t.snd.PacketsOut() == 1 {
		if alt := srtt*3/2 + t.cfg.WCDelAck; alt > pto {
			pto = alt
		}
	}
	if pto < t.cfg.MinPTO {
		pto = t.cfg.MinPTO
	}
	return pto
}

func (t *TLP) rearm() {
	if t.snd.State() == trace.StateOpen && t.snd.HasOutstanding() && !t.fired {
		pto := t.pto()
		if pto >= t.snd.RTO() {
			// The native RTO fires first; probing buys nothing.
			t.timer.Stop()
			return
		}
		t.timer.Reset(pto)
	} else {
		t.timer.Stop()
	}
}

// OnSent implements tcpsim.Recovery.
func (t *TLP) OnSent(bool) { t.rearm() }

// OnAck implements tcpsim.Recovery.
func (t *TLP) OnAck() {
	t.fired = false // ACK progress opens a new probe episode
	t.rearm()
}

// OnRTO implements tcpsim.Recovery.
func (t *TLP) OnRTO() { t.timer.Stop() }

func (t *TLP) onPTO() {
	if t.snd.State() != trace.StateOpen || !t.snd.HasOutstanding() {
		return
	}
	t.fired = true
	if t.snd.ProbeSendNewOrLast() {
		t.Probes++
	}
	// Hand over to the regular retransmission timer.
	t.snd.RearmRTO()
}

// --- S-RTO ---

// SRTOConfig parameterizes Smart-RTO. Zero values take the paper's
// deployed settings.
type SRTOConfig struct {
	// T1 activates the probe timer only when packets_out < T1
	// (5 for web search, 10 for cloud storage in the deployment).
	T1 int
	// T2 guards the cwnd halving on trigger.
	T2 int
	// RTTMultiple scales the probe timer (2·RTT in the paper, the
	// same threshold used to define stalls).
	RTTMultiple float64
}

// SRTO is the paper's Smart-RTO (Algorithm 1): a second, slightly
// more aggressive retransmission timer that fires at 2·RTT when a
// timeout retransmission is likely — few packets outstanding and the
// head segment not already recovered by a native timeout — and
// retransmits the first unacknowledged segment. Unlike TLP it also
// works in Disorder/Recovery, so it mitigates f-double and ACK-delay
// stalls, not just tail losses.
type SRTO struct {
	cfg   SRTOConfig
	snd   *tcpsim.Sender
	timer *sim.Timer
	// probed/probedUna enforce the fallback rule: if the S-RTO
	// retransmission of the current head is itself dropped, recovery
	// is left to the native RTO rather than probing again.
	probed    bool
	probedUna uint32
	// Triggers counts probe firings that retransmitted data.
	Triggers int
}

// NewSRTO builds an S-RTO strategy.
func NewSRTO(cfg SRTOConfig) *SRTO {
	if cfg.T1 <= 0 {
		cfg.T1 = 10
	}
	if cfg.T2 <= 0 {
		cfg.T2 = 5
	}
	if cfg.RTTMultiple <= 0 {
		cfg.RTTMultiple = 2
	}
	return &SRTO{cfg: cfg}
}

// Name implements tcpsim.Recovery.
func (s *SRTO) Name() string { return string(KindSRTO) }

// Attach implements tcpsim.Recovery.
func (s *SRTO) Attach(snd *tcpsim.Sender) {
	s.snd = snd
	s.timer = sim.NewTimer(snd.Sim(), s.trigger)
}

// set implements procedure SET_SRTO: arm the probe timer at
// RTTMultiple·RTT when a timeout retransmission is likely; otherwise
// leave recovery to the native RTO.
func (s *SRTO) set() {
	if !s.snd.HasOutstanding() {
		s.timer.Stop()
		return
	}
	if s.probed && (s.snd.SndUna() == s.probedUna || s.snd.State() != trace.StateOpen) {
		// One probe per recovery episode: if the probe did not settle
		// things (head unmoved, or the episode it opened is still
		// running), fall back to the native RTO. Serializing probes
		// across a multi-loss window would repair one hole per 2·RTT
		// — slower than the RTO's one-sweep slow-start recovery.
		s.timer.Stop()
		return
	}
	if s.snd.FirstUnackedRTORetransmitted() || s.snd.PacketsOut() >= s.cfg.T1 {
		// Algorithm 1 line 5: timer ← native_rto (the regular RTO
		// timer is already armed by the sender).
		s.timer.Stop()
		return
	}
	srtt := s.snd.SRTT()
	if srtt <= 0 || s.snd.RTTSamples() < 2 {
		// Warmup: a 2·RTT timer built on one or two samples fires
		// spuriously on jittery paths; leave early losses to the
		// native RTO.
		s.timer.Stop()
		return
	}
	d := time.Duration(s.cfg.RTTMultiple * float64(srtt))
	if rto := s.snd.RTO(); d >= rto {
		s.timer.Stop()
		return
	}
	s.timer.Reset(d)
}

// trigger implements procedure TRIGGER_SRTO.
func (s *SRTO) trigger() {
	if !s.snd.HasOutstanding() {
		return
	}
	s.probed = true
	s.probedUna = s.snd.SndUna()
	wasRecovery := s.snd.State() == trace.StateRecovery
	// Enter Recovery first so the episode snapshot (for DSACK undo)
	// captures the pre-reduction cwnd.
	s.snd.EnterRecoveryExternal()
	if !s.snd.ProbeRetransmitFirstUnacked() {
		return
	}
	s.Triggers++
	if s.snd.Cwnd() > s.cfg.T2 && !wasRecovery {
		s.snd.SetCwnd(s.snd.Cwnd() / 2)
	}
	// timer ← native_rto: fall back to the regular RTO for the next
	// recovery step.
	s.snd.RearmRTO()
}

// OnSent implements tcpsim.Recovery.
func (s *SRTO) OnSent(bool) { s.set() }

// OnAck implements tcpsim.Recovery.
func (s *SRTO) OnAck() {
	if s.probed && s.snd.SndUna() != s.probedUna && s.snd.State() == trace.StateOpen {
		s.probed = false // episode settled: new probe budget
	}
	s.set()
}

// OnRTO implements tcpsim.Recovery.
func (s *SRTO) OnRTO() { s.timer.Stop() }
