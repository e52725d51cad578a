package tcpsim

import (
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// SenderConfig parameterizes the server-side TCP sender.
type SenderConfig struct {
	// MSS is the maximum segment size in bytes.
	MSS int
	// InitCwnd is the initial congestion window in segments
	// (Linux 2.6.32 used 3).
	InitCwnd int
	// MinRTO, MaxRTO and InitRTO bound the retransmission timer
	// (RFC 6298 with the Linux 200ms floor).
	MinRTO  time.Duration
	MaxRTO  time.Duration
	InitRTO time.Duration
	// DupThresh is the initial fast-retransmit duplicate-ACK
	// threshold.
	DupThresh int
	// AdaptDupThresh raises the threshold to the largest observed
	// reordering extent, as the Linux stack does.
	AdaptDupThresh bool
	// LimitedTransmit sends one new segment for each of the first
	// two dupacks (RFC 3042).
	LimitedTransmit bool
	// EarlyRetransmit lowers the dupack threshold to
	// outstanding−1 when fewer than 4 segments are outstanding and
	// there is no new data to send (RFC 5827). Off in the paper's
	// 2.6.32 kernel.
	EarlyRetransmit bool
	// SlowStartAfterIdle restarts the congestion window from
	// InitCwnd when the sender has been idle longer than one RTO
	// (RFC 2861 / tcp_slow_start_after_idle=1, the 2.6.32 default).
	// Shared cloud-storage connections idle between requests, so
	// every response after think time begins at IW — the origin of
	// many of the paper's small-cwnd stalls.
	SlowStartAfterIdle bool
	// Pacing spreads a window's transmissions across the RTT
	// (gap = SRTT/cwnd) instead of sending back-to-back bursts — the
	// Section-4.3 suggestion for mitigating continuous-loss stalls
	// at shallow bottleneck queues.
	Pacing bool
	// CC selects the congestion-avoidance algorithm (nil = Reno).
	// The paper's kernel defaulted to CUBIC; the evaluation here uses
	// Reno-style avoidance, matching the Section 3.1 description the
	// classifier mimics. CUBIC is available for ablations.
	CC CongestionControl
}

// DefaultSenderConfig mirrors the paper's production kernel.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		MSS:                1460,
		InitCwnd:           3,
		MinRTO:             200 * time.Millisecond,
		MaxRTO:             120 * time.Second,
		InitRTO:            time.Second,
		DupThresh:          3,
		AdaptDupThresh:     true,
		LimitedTransmit:    true,
		SlowStartAfterIdle: true,
	}
}

// SenderStats counts sender-side events for the evaluation tables.
type SenderStats struct {
	DataSegmentsSent int // includes retransmissions
	Retransmissions  int
	FastRetransmits  int
	RTORetransmits   int
	ProbeRetransmits int // strategy-driven (TLP / S-RTO)
	RTOFirings       int
	SpuriousRetrans  int // detected via DSACK
	ZeroWindowProbes int
	EnteredRecovery  int
	EnteredLoss      int
}

// sndSeg is one scoreboard entry. The flag semantics mirror the Linux
// skb marks: lost stays set across a retransmission (the original
// copy is still gone); retransOut marks that a retransmitted copy is
// in the network. A segment whose retransmission is itself dropped
// can only be recovered by the RTO — the mechanism behind the paper's
// f-double stalls (Figure 9).
type sndSeg struct {
	seq        uint64 // unwrapped stream offset; uint32(seq) is the wire value
	len        int
	acked      bool
	sacked     bool
	lost       bool
	retransOut bool // a retransmission is outstanding
	retrans    int  // times retransmitted
	rtoRetrans bool
	everSent   bool
	sentAt     sim.Time
	firstSent  sim.Time
}

func (g *sndSeg) end() uint64 { return g.seq + uint64(g.len) }

// Sender is the server-side TCP data sender. The application feeds it
// bytes with Write; the connection wires Output to the downlink
// path and calls HandleAck for every arriving client segment.
type Sender struct {
	sm  *sim.Simulator
	cfg SenderConfig

	// Output transmits a segment (set by the connection). The
	// connection stamps Ack/Wnd before putting it on the wire.
	Output func(seg *trace.Segment)

	// base is the unwrapped offset of data byte 0 (wire value ISN+1).
	// All scoreboard offsets are unwrapped uint64 so comparisons stay
	// correct across 2^32 wraps; ackU maps incoming wire values into
	// the same space.
	base   uint64
	ackU   seqspace.Unwrapper
	segs   []sndSeg
	unaIdx int // index of first un-cumulatively-acked segment
	nxtIdx int // index of next never-sent segment

	// Equation 1's scoreboard counts over [unaIdx, nxtIdx), kept as
	// the flags change (Linux's sacked_out, lost_out, retrans_out): a
	// SACKed segment counts only as SACKed, whatever its other flags.
	sackedOut  int
	lostOut    int
	retransOut int

	rwnd        int // peer's advertised window, bytes
	maxAckSeen  uint64
	cwnd        float64
	ssthresh    float64
	state       trace.CongState
	dupacks     int
	dupThresh   int
	recoverSeq  uint64 // snd_nxt at recovery/loss entry (unwrapped)
	prrOut      int    // ACKs seen in recovery (rate-halving counter)
	targetCwnd  float64
	maxReorder  int
	rtoSRTT     time.Duration // srtt per RFC 6298
	rttvar      time.Duration
	rto         time.Duration
	hasRTT      bool
	rttSamples  int
	rtoBackoffN int

	rtoTimer     *sim.Timer
	persistTimer *sim.Timer
	paceTimer    *sim.Timer
	persistN     int
	lastSendAt   sim.Time

	// DSACK undo state (tcp_try_undo_recovery): when every
	// retransmission of the current episode is reported duplicate by
	// DSACKs, the congestion reduction is reverted.
	undoRetrans   int
	priorCwnd     float64
	priorSsthresh float64
	inEpisode     bool

	recovery Recovery
	cc       CongestionControl

	truth TruthSink // optional ground-truth event sink

	stats SenderStats
}

// NewSender builds a sender on the simulator. startSeq is the stream
// offset of the first data byte (1 when a SYN consumed offset 0).
func NewSender(s *sim.Simulator, cfg SenderConfig, startSeq uint32) *Sender {
	if cfg.MSS <= 0 {
		panic("tcpsim: MSS must be positive")
	}
	cc := cfg.CC
	if cc == nil {
		cc = RenoCC{}
	}
	snd := &Sender{
		sm:        s,
		cfg:       cfg,
		cc:        cc,
		rwnd:      cfg.MSS, // until the first ACK tells us better
		cwnd:      float64(cfg.InitCwnd),
		ssthresh:  1 << 30,
		dupThresh: cfg.DupThresh,
		rto:       cfg.InitRTO,
		recovery:  NativeRecovery{},
	}
	// Seeding the unwrapper at startSeq anchors base and every
	// incoming ACK/SACK edge in the same unwrapped space.
	snd.base = snd.ackU.Unwrap(startSeq)
	snd.rtoTimer = sim.NewTimer(s, snd.onRTO)
	snd.persistTimer = sim.NewTimer(s, snd.onPersist)
	return snd
}

// SetRecovery installs a loss-recovery strategy (TLP, S-RTO, …).
// Call before any data is written.
func (s *Sender) SetRecovery(r Recovery) {
	if r == nil {
		r = NativeRecovery{}
	}
	s.recovery = r
	r.Attach(s)
}

// --- accessors used by strategies, the connection and tests ---

// Sim returns the simulator the sender runs on.
func (s *Sender) Sim() *sim.Simulator { return s.sm }

// Stats returns a copy of the counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// State reports the congestion-avoidance state.
func (s *Sender) State() trace.CongState { return s.state }

// Cwnd reports the congestion window in whole segments.
func (s *Sender) Cwnd() int { return int(s.cwnd) }

// SetCwnd overrides the congestion window (strategy use).
func (s *Sender) SetCwnd(c int) {
	if c < 1 {
		c = 1
	}
	s.cwnd = float64(c)
}

// EnterRecoveryExternal forces the Recovery state without a
// retransmission (S-RTO's state adjustment).
func (s *Sender) EnterRecoveryExternal() {
	if s.state != trace.StateRecovery {
		s.beginEpisode()
		s.state = trace.StateRecovery
		s.recoverSeq = s.sndNxt64()
		// The strategy manages its own window reduction (Algorithm 1
		// halves cwnd at most once); disable rate-halving for this
		// episode by aiming it at the current window.
		s.targetCwnd = s.cwnd
		s.stats.EnteredRecovery++
	}
}

// SetEarlyRetransmit toggles RFC 5827 behaviour at runtime (strategy
// use).
func (s *Sender) SetEarlyRetransmit(on bool) { s.cfg.EarlyRetransmit = on }

// SRTT reports the smoothed RTT (0 before the first sample).
func (s *Sender) SRTT() time.Duration { return s.rtoSRTT }

// RTTSamples reports how many RTT measurements have fed the
// estimator. Probe-based strategies use it as a warmup guard: a
// 2·SRTT timer armed off a single (possibly lucky) handshake sample
// fires spuriously on jittery paths.
func (s *Sender) RTTSamples() int { return s.rttSamples }

// RTO reports the current retransmission timeout.
func (s *Sender) RTO() time.Duration { return s.rto }

// SndUna reports the first unacknowledged stream byte as a wire
// sequence number.
func (s *Sender) SndUna() uint32 { return uint32(s.sndUna64()) }

// sndUna64 is the first unacknowledged byte's unwrapped offset.
func (s *Sender) sndUna64() uint64 {
	if s.unaIdx < len(s.segs) {
		return s.segs[s.unaIdx].seq
	}
	return s.sndNxt64()
}

// sndNxt64 is the next new stream byte's unwrapped offset.
func (s *Sender) sndNxt64() uint64 {
	if s.nxtIdx < len(s.segs) {
		return s.segs[s.nxtIdx].seq
	}
	if n := len(s.segs); n > 0 {
		return s.segs[n-1].end()
	}
	return s.base
}

// SndNxt reports the next new stream byte as a wire sequence number.
func (s *Sender) SndNxt() uint32 { return uint32(s.sndNxt64()) }

// PacketsOut reports snd_nxt − snd_una in segments (the kernel's
// packets_out).
func (s *Sender) PacketsOut() int { return s.nxtIdx - s.unaIdx }

// InFlight evaluates Equation 1 of the paper:
// in_flight = packets_out + retrans_out − (sacked_out + lost_out).
func (s *Sender) InFlight() int {
	return max(s.PacketsOut()+s.retransOut-s.sackedOut-s.lostOut, 0)
}

// markLost sets segment g's lost flag. g is outstanding and not SACKed.
func (s *Sender) markLost(g *sndSeg) {
	if !g.lost {
		g.lost = true
		s.lostOut++
	}
}

// clearRetransOut clears segment g's retransmission-outstanding flag.
// g is outstanding and not SACKed.
func (s *Sender) clearRetransOut(g *sndSeg) {
	if g.retransOut {
		g.retransOut = false
		s.retransOut--
	}
}

// HasOutstanding reports whether any sent data awaits cumulative ACK.
func (s *Sender) HasOutstanding() bool { return s.unaIdx < s.nxtIdx }

// FirstUnackedRTORetransmitted reports whether the first
// unacknowledged segment has already been retransmitted by the native
// RTO (S-RTO's activation guard).
func (s *Sender) FirstUnackedRTORetransmitted() bool {
	if s.unaIdx >= s.nxtIdx {
		return false
	}
	return s.segs[s.unaIdx].rtoRetrans
}

// --- application interface ---

// Write makes n more bytes available for transmission, segmenting
// them at MSS. It triggers transmission immediately if the window
// allows.
func (s *Sender) Write(n int64) {
	for n > 0 {
		l := int64(s.cfg.MSS)
		// Coalesce the tail into the previous segment if it was
		// never sent and is short (mimics filling a partial segment).
		if last := len(s.segs) - 1; last >= s.nxtIdx && last >= 0 && s.segs[last].len < s.cfg.MSS {
			room := int64(s.cfg.MSS - s.segs[last].len)
			if room > n {
				room = n
			}
			s.segs[last].len += int(room)
			// Shift nothing: this is the final segment so far.
			n -= room
			continue
		}
		if l > n {
			l = n
		}
		seq := s.base
		if len(s.segs) > 0 {
			seq = s.segs[len(s.segs)-1].end()
		}
		s.segs = append(s.segs, sndSeg{seq: seq, len: int(l)})
		n -= l
	}
	s.trySend()
}

// --- transmission ---

// usableWindowSegs reports how many more segments congestion control
// admits right now.
func (s *Sender) usableWindowSegs() int {
	return int(s.cwnd) - s.InFlight()
}

// rwndAllows reports whether the peer window admits sending a segment
// of length l at unwrapped stream offset seq.
func (s *Sender) rwndAllows(seq uint64, l int) bool {
	una := s.sndUna64()
	return int64(seq-una)+int64(l) <= int64(s.rwnd)
}

// sendOne transmits the single next eligible segment —
// retransmissions of lost segments first, then new data — and
// reports whether anything went out.
func (s *Sender) sendOne() bool {
	if s.usableWindowSegs() <= 0 {
		return false
	}
	// Retransmissions of lost segments take priority.
	if s.state == trace.StateRecovery || s.state == trace.StateLoss {
		if i := s.firstLostIdx(); i >= 0 {
			s.transmit(i, false)
			return true
		}
	}
	// New data.
	if s.nxtIdx < len(s.segs) {
		g := &s.segs[s.nxtIdx]
		if !s.rwndAllows(g.seq, g.len) {
			s.armPersistIfNeeded()
			return false
		}
		idx := s.nxtIdx
		s.nxtIdx++
		s.transmit(idx, false)
		return true
	}
	return false
}

// maybeIdleRestart applies RFC 2861: after an idle period longer
// than the RTO with nothing in flight (true application idleness, not
// a loss stall), the congestion window restarts from IW.
func (s *Sender) maybeIdleRestart() {
	if !s.cfg.SlowStartAfterIdle || s.state != trace.StateOpen ||
		s.HasOutstanding() || s.lastSendAt == 0 {
		return
	}
	if s.sm.Now().Sub(s.lastSendAt) > s.rto && s.cwnd > float64(s.cfg.InitCwnd) {
		s.cwnd = float64(s.cfg.InitCwnd)
	}
}

// trySend transmits everything currently eligible (back-to-back), or
// hands off to the pacer when pacing is enabled.
func (s *Sender) trySend() {
	s.maybeIdleRestart()
	if s.cfg.Pacing && s.hasRTT {
		s.paceDrain()
		return
	}
	guard := 0
	for s.sendOne() {
		guard++
		if guard > 1<<20 {
			panic("tcpsim: trySend did not converge")
		}
	}
	if s.HasOutstanding() && !s.rtoTimer.Armed() {
		s.armRTO()
	}
}

// paceDrain sends one segment now and schedules the next after
// SRTT/cwnd, spacing the window across the round trip.
func (s *Sender) paceDrain() {
	if s.paceTimer == nil {
		s.paceTimer = sim.NewTimer(s.sm, s.paceDrain)
	}
	if s.paceTimer.Armed() {
		return // the pacer is already draining
	}
	sent := s.sendOne()
	if s.HasOutstanding() && !s.rtoTimer.Armed() {
		s.armRTO()
	}
	if !sent {
		return
	}
	cw := s.cwnd
	if cw < 1 {
		cw = 1
	}
	gap := time.Duration(float64(s.rtoSRTT) / cw)
	if gap < 100*time.Microsecond {
		gap = 100 * time.Microsecond
	}
	s.paceTimer.Reset(gap)
}

func (s *Sender) firstLostIdx() int {
	for i := s.unaIdx; i < s.nxtIdx; i++ {
		g := &s.segs[i]
		// A lost segment whose retransmission is still outstanding is
		// NOT retransmitted again — if that copy is dropped too, only
		// the RTO can recover it (the f-double stall of Figure 9).
		if g.lost && !g.acked && !g.sacked && !g.retransOut {
			return i
		}
	}
	return -1
}

// transmit puts segment i on the wire. probe marks strategy-driven
// retransmissions (TLP / S-RTO), which do not count as fast
// retransmits.
func (s *Sender) transmit(i int, probe bool) {
	g := &s.segs[i]
	isRetrans := g.everSent
	now := s.sm.Now()
	s.lastSendAt = now
	if !g.everSent {
		g.everSent = true
		g.firstSent = now
	} else {
		g.retrans++
		if !g.retransOut && !g.sacked {
			s.retransOut++
		}
		g.retransOut = true
		s.undoRetrans++
		s.stats.Retransmissions++
		if probe {
			s.stats.ProbeRetransmits++
		} else if s.state == trace.StateLoss {
			s.stats.RTORetransmits++
		} else {
			s.stats.FastRetransmits++
		}
	}
	g.sentAt = now
	s.stats.DataSegmentsSent++
	seg := &trace.Segment{
		Flags: packet.FlagACK | packet.FlagPSH,
		Seq:   uint32(g.seq),
		Len:   g.len,
		TSVal: now,
	}
	if s.Output == nil {
		panic("tcpsim: Sender.Output not set")
	}
	if isRetrans && s.truth != nil {
		s.truth.RetransSent(now, seg.Seq)
	}
	s.Output(seg)
	s.recovery.OnSent(isRetrans)
	if !s.rtoTimer.Armed() {
		s.armRTO()
	}
}

// ProbeRetransmitFirstUnacked retransmits snd_una's segment outside
// the normal recovery flow (S-RTO trigger, TLP probe of last
// segment). No cwnd or state change is made here.
func (s *Sender) ProbeRetransmitFirstUnacked() bool {
	if s.unaIdx >= s.nxtIdx {
		return false
	}
	s.transmit(s.unaIdx, true)
	return true
}

// ProbeSendNewOrLast implements the TLP probe: transmit one new
// segment if available and window-permitted, else retransmit the
// highest-sequence sent segment.
func (s *Sender) ProbeSendNewOrLast() bool {
	if s.nxtIdx < len(s.segs) {
		g := &s.segs[s.nxtIdx]
		if s.rwndAllows(g.seq, g.len) {
			idx := s.nxtIdx
			s.nxtIdx++
			s.transmit(idx, true)
			return true
		}
	}
	if s.nxtIdx > s.unaIdx {
		s.transmit(s.nxtIdx-1, true)
		return true
	}
	return false
}

// --- timers ---

func (s *Sender) armRTO() {
	s.rtoTimer.Reset(s.rto)
}

// RearmRTO restarts the retransmission timer at the current RTO
// (strategy use, mirroring TLP's PTO→RTO handover).
func (s *Sender) RearmRTO() { s.armRTO() }

func (s *Sender) onRTO() {
	if !s.HasOutstanding() {
		return
	}
	if s.truth != nil {
		s.truth.RTOFire(s.sm.Now())
	}
	s.stats.RTOFirings++
	s.stats.EnteredLoss++
	s.beginEpisode()
	// RFC 6298 5.5–5.7 + Linux tcp_enter_loss.
	fl := s.InFlight()
	if fl < 2 {
		fl = 2
	}
	s.ssthresh = s.cc.AfterLoss(s.cwnd, float64(fl), s.sm.Now())
	s.cwnd = 1
	s.state = trace.StateLoss
	s.dupacks = 0
	s.prrOut = 0
	s.recoverSeq = s.sndNxt64()
	// Mark every outstanding non-SACKed segment lost, clearing the
	// retransmission-outstanding hint so they are retransmitted anew
	// (tcp_enter_loss semantics).
	for i := s.unaIdx; i < s.nxtIdx; i++ {
		g := &s.segs[i]
		if !g.sacked {
			s.markLost(g)
			s.clearRetransOut(g)
		}
	}
	// Retransmit the head segment with timer backoff.
	head := s.unaIdx
	s.segs[head].rtoRetrans = true
	s.transmit(head, false)
	s.rtoBackoffN++
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.armRTO()
	s.recovery.OnRTO()
}

func (s *Sender) armPersistIfNeeded() {
	if s.rwnd == 0 && !s.persistTimer.Armed() && s.nxtIdx < len(s.segs) {
		iv := s.rto << s.persistN
		if iv > s.cfg.MaxRTO {
			iv = s.cfg.MaxRTO
		}
		s.persistTimer.Reset(iv)
	}
}

func (s *Sender) onPersist() {
	if s.rwnd > 0 {
		return
	}
	// Zero-window probe: like Linux's tcp_xmit_probe_skb, an
	// out-of-window segment (seq = snd_una − 1) that the receiver
	// must answer with an ACK carrying the current window.
	s.stats.ZeroWindowProbes++
	seg := &trace.Segment{Flags: packet.FlagACK, Seq: uint32(s.sndUna64() - 1), Len: 0, TSVal: s.sm.Now()}
	s.Output(seg)
	if s.persistN < 10 {
		s.persistN++
	}
	s.armPersistIfNeeded()
}

// --- ACK processing ---

// HandleAck processes an arriving client segment's acknowledgment
// fields (cumulative ACK, SACK blocks, advertised window).
func (s *Sender) HandleAck(seg *trace.Segment) {
	prevRwnd := s.rwnd
	s.rwnd = seg.Wnd
	if prevRwnd == 0 && s.rwnd > 0 {
		s.persistTimer.Stop()
		s.persistN = 0
	}

	dsack, sackedNew := s.applySACK(seg)
	if dsack {
		s.stats.SpuriousRetrans++
		s.undoRetrans--
		s.maybeUndo()
	}

	ack := s.ackU.Unwrap(seg.Ack)
	switch {
	case ack > s.maxAckSeen:
		s.maxAckSeen = ack
		s.handleNewAck(ack, seg.TSEcr)
	case s.isDupAck(seg, ack, prevRwnd, sackedNew):
		s.handleDupAck(sackedNew)
	}

	s.updateLostMarks()
	if s.state == trace.StateRecovery {
		s.rateHalve()
	}
	s.trySend()
	s.recovery.OnAck()
}

// isDupAck mirrors the kernel's notion of a duplicate ACK: carries no
// data, does not advance snd_una, does not change the window, and
// arrives while data is outstanding. Both classic NewReno dupacks and
// SACK-bearing ACKs qualify (the paper folds both into "dupack").
func (s *Sender) isDupAck(seg *trace.Segment, ack uint64, prevRwnd int, sackedNew bool) bool {
	if !s.HasOutstanding() {
		return false
	}
	if seg.Len != 0 || ack != s.maxAckSeen {
		return false
	}
	if seg.Wnd != prevRwnd && !sackedNew && seg.SACK.Len() == 0 {
		return false // pure window update
	}
	return true
}

// applySACK marks scoreboard entries from the segment's SACK blocks.
// It reports whether a DSACK was present and whether any new segment
// got SACKed.
func (s *Sender) applySACK(seg *trace.Segment) (dsack, sackedNew bool) {
	blocks := seg.SACK.Slice()
	if len(blocks) == 0 {
		return false, false
	}
	// DSACK: first block at or below the cumulative ACK, or
	// contained in a later block (RFC 2883). Modular comparisons: the
	// blocks sit within one window of the ACK by construction.
	b0 := blocks[0]
	if seqspace.LessEq(b0.Right, seg.Ack) {
		dsack = true
	} else if len(blocks) > 1 && seqspace.LessEq(blocks[1].Left, b0.Left) &&
		seqspace.LessEq(b0.Right, blocks[1].Right) {
		dsack = true
	}
	for bi, b := range blocks {
		if dsack && bi == 0 {
			continue
		}
		// Unwrap the block edges into the scoreboard's offset space.
		left := s.ackU.Unwrap(b.Left)
		right := s.ackU.Unwrap(b.Right)
		for i := s.unaIdx; i < s.nxtIdx; i++ {
			g := &s.segs[i]
			if g.acked || g.sacked {
				continue
			}
			if g.seq >= left && g.end() <= right {
				if g.lost {
					g.lost = false
					s.lostOut--
				}
				s.clearRetransOut(g)
				g.sacked = true
				s.sackedOut++
				sackedNew = true
				// Reordering extent: a SACKed segment below a
				// previously SACKed/acked one indicates reordering.
				if ext := s.reorderExtent(i); ext > s.maxReorder {
					s.maxReorder = ext
					if s.cfg.AdaptDupThresh && ext > s.dupThresh {
						s.dupThresh = ext
					}
				}
			}
		}
	}
	return dsack, sackedNew
}

// reorderExtent estimates how far segment i was reordered: the number
// of already-SACKed segments above it.
func (s *Sender) reorderExtent(i int) int {
	n := 0
	for j := i + 1; j < s.nxtIdx; j++ {
		if s.segs[j].sacked {
			n++
		}
	}
	return n
}

func (s *Sender) handleNewAck(ack uint64, tsecr sim.Time) {
	// Advance the scoreboard.
	newlyAcked := 0
	coveredRetrans := false
	var latestSent sim.Time
	haveSample := false
	for s.unaIdx < len(s.segs) && s.segs[s.unaIdx].end() <= ack {
		g := &s.segs[s.unaIdx]
		switch {
		case s.unaIdx >= s.nxtIdx:
			// Never sent, so never counted.
		case g.sacked:
			s.sackedOut--
		default:
			if g.lost {
				s.lostOut--
			}
			if g.retransOut {
				s.retransOut--
			}
		}
		g.acked = true
		newlyAcked++
		if g.retrans > 0 {
			coveredRetrans = true
		}
		// Fallback RTT sampling per Karn's rule: only
		// never-retransmitted segments, and only the most recently
		// sent one (segments that waited in the receiver's
		// out-of-order queue through a long recovery would otherwise
		// poison SRTT with multi-second samples).
		if g.retrans == 0 && g.sentAt >= latestSent {
			latestSent = g.sentAt
			haveSample = true
		}
		s.unaIdx++
	}
	if tsecr > 0 {
		// RFC 7323 timestamps give the true RTT even across
		// retransmissions and cumulative-ACK jumps.
		s.rttSample(s.sm.Now().Sub(tsecr))
	} else if haveSample {
		s.rttSample(s.sm.Now().Sub(latestSent))
	}
	s.dupacks = 0
	s.rtoBackoffN = 0
	s.recomputeRTO()

	// State transitions out of Recovery/Loss once the recovery point
	// is acked.
	switch s.state {
	case trace.StateRecovery, trace.StateLoss:
		if ack >= s.recoverSeq {
			s.state = trace.StateOpen
			s.inEpisode = false
			// tcp_complete_cwr: never RAISE cwnd on recovery exit —
			// an externally-entered recovery (S-RTO) may have left
			// ssthresh untouched.
			if s.ssthresh < s.cwnd {
				s.cwnd = s.ssthresh
			}
			if s.cwnd < 2 {
				s.cwnd = 2
			}
			s.prrOut = 0
		}
		// Note: no blind NewReno partial-ACK retransmission. With
		// SACK (all flows here), the 2.6.32-era recovery is
		// scoreboard-driven: a hole is retransmitted only when
		// dupThresh SACKed segments sit above it. A tail segment
		// lost in the same window as a recovered hole therefore
		// waits for the RTO — the paper's "tail retransmission in
		// Recovery state" (Table 7).
		_ = coveredRetrans
	case trace.StateDisorder:
		s.state = trace.StateOpen
	}

	// Congestion window growth in Open state.
	if s.state == trace.StateOpen {
		for i := 0; i < newlyAcked; i++ {
			if s.cwnd < s.ssthresh {
				s.cwnd++ // slow start
			} else {
				s.cwnd = s.cc.OnAckCA(s.cwnd, s.sm.Now())
			}
		}
	}

	if s.HasOutstanding() {
		s.armRTO()
	} else {
		s.rtoTimer.Stop()
	}
}

func (s *Sender) handleDupAck(sackedNew bool) {
	s.dupacks++
	if s.state == trace.StateOpen {
		s.state = trace.StateDisorder
	}
	if s.state == trace.StateDisorder {
		// Limited transmit: send a new segment for each of the first
		// two dupacks.
		if s.cfg.LimitedTransmit && s.dupacks <= 2 && s.nxtIdx < len(s.segs) {
			g := &s.segs[s.nxtIdx]
			if s.rwndAllows(g.seq, g.len) {
				idx := s.nxtIdx
				s.nxtIdx++
				s.transmit(idx, false)
			}
		}
		if s.dupacks >= s.effectiveDupThresh() {
			s.enterRecovery()
		}
	}
	_ = sackedNew
}

// effectiveDupThresh applies early retransmit when enabled.
func (s *Sender) effectiveDupThresh() int {
	th := s.dupThresh
	if s.cfg.EarlyRetransmit {
		out := s.PacketsOut()
		if out < 4 && s.nxtIdx >= len(s.segs) {
			er := out - 1
			if er < 1 {
				er = 1
			}
			if er < th {
				th = er
			}
		}
	}
	return th
}

// beginEpisode snapshots pre-reduction state for DSACK undo.
func (s *Sender) beginEpisode() {
	if !s.inEpisode {
		s.inEpisode = true
		s.undoRetrans = 0
		s.priorCwnd = s.cwnd
		s.priorSsthresh = s.ssthresh
	}
}

// maybeUndo reverts the congestion reduction when DSACKs have proven
// every retransmission of the episode spurious (the data was never
// lost — only ACKs were delayed or dropped).
func (s *Sender) maybeUndo() {
	if !s.inEpisode || s.undoRetrans > 0 {
		return
	}
	if s.state != trace.StateRecovery && s.state != trace.StateLoss {
		return
	}
	s.state = trace.StateOpen
	if s.priorCwnd > s.cwnd {
		s.cwnd = s.priorCwnd
	}
	s.ssthresh = s.priorSsthresh
	s.inEpisode = false
	// Nothing was actually lost: clear the marks.
	for i := s.unaIdx; i < s.nxtIdx; i++ {
		s.segs[i].lost = false
	}
	s.lostOut = 0
}

func (s *Sender) enterRecovery() {
	s.beginEpisode()
	s.state = trace.StateRecovery
	s.stats.EnteredRecovery++
	s.recoverSeq = s.sndNxt64()
	fl := float64(s.InFlight())
	if fl < 2 {
		fl = 2
	}
	s.ssthresh = s.cc.AfterLoss(s.cwnd, fl, s.sm.Now())
	s.targetCwnd = s.ssthresh
	s.prrOut = 0
	// Fast-retransmit the head segment.
	if s.unaIdx < s.nxtIdx {
		if g := &s.segs[s.unaIdx]; !g.sacked {
			s.markLost(g)
			s.clearRetransOut(g)
		}
	}
}

// rateHalve implements the Linux CWR-style reduction the paper
// describes: cwnd drops by one for every second ACK until halved.
func (s *Sender) rateHalve() {
	s.prrOut++
	if s.prrOut%2 == 0 && s.cwnd > s.targetCwnd {
		s.cwnd--
		if s.cwnd < 1 {
			s.cwnd = 1
		}
	}
}

// updateLostMarks applies the RFC 6675-style IsLost heuristic: a
// segment with ≥ dupThresh SACKed segments above it is lost.
func (s *Sender) updateLostMarks() {
	if s.state != trace.StateRecovery && s.state != trace.StateDisorder {
		return
	}
	sackedAbove := 0
	for i := s.nxtIdx - 1; i >= s.unaIdx; i-- {
		g := &s.segs[i]
		if g.sacked {
			sackedAbove++
			continue
		}
		if g.acked || g.lost || g.retransOut {
			continue
		}
		if sackedAbove >= s.dupThresh && s.state == trace.StateRecovery {
			s.markLost(g)
		}
	}
}

// SeedRTT feeds an out-of-band RTT measurement (the SYN/SYN-ACK
// exchange) into the estimator, as Linux does at connection setup.
func (s *Sender) SeedRTT(rtt time.Duration) { s.rttSample(rtt) }

// --- RTT estimation (RFC 6298) ---

func (s *Sender) rttSample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	s.rttSamples++
	if !s.hasRTT {
		s.rtoSRTT = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
	} else {
		delta := s.rtoSRTT - rtt
		if delta < 0 {
			delta = -delta
		}
		s.rttvar = (3*s.rttvar + delta) / 4
		s.rtoSRTT = (7*s.rtoSRTT + rtt) / 8
	}
	s.recomputeRTO()
}

func (s *Sender) recomputeRTO() {
	if !s.hasRTT {
		return
	}
	// Linux applies the 200ms floor to the variance term, not to the
	// whole RTO (tcp_set_rto): RTO = SRTT + max(4·RTTVAR, minRTO).
	// This is why production RTOs sit an order of magnitude above the
	// RTT (Figure 1b).
	v := 4 * s.rttvar
	if v < s.cfg.MinRTO {
		v = s.cfg.MinRTO
	}
	rto := s.rtoSRTT + v
	if rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	// Preserve exponential backoff until new data is acked.
	for i := 0; i < s.rtoBackoffN; i++ {
		rto *= 2
		if rto > s.cfg.MaxRTO {
			rto = s.cfg.MaxRTO
			break
		}
	}
	s.rto = rto
}
