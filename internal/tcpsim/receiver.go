package tcpsim

import (
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// ReceiverConfig parameterizes the client-side receiver model.
type ReceiverConfig struct {
	// MSS is the maximum segment size in bytes.
	MSS int
	// InitRwnd is the receive window advertised in the SYN, bytes.
	// The paper found old client software advertising as little as
	// 4096 bytes (2 MSS), with strong knock-on effects (Table 4).
	InitRwnd int
	// BufSize is the receive buffer capacity; the window can never
	// exceed it. Defaults to InitRwnd when zero (the old-client
	// behaviour: no buffer auto-tuning).
	BufSize int
	// DelAckDelay is the delayed-ACK timer. RFC 1122 allows up to
	// 500ms; Linux uses 40–200ms. Old client stacks sit at the high
	// end, producing the paper's ACK-delay stalls.
	DelAckDelay time.Duration
	// AckEvery forces an immediate ACK after this many unacked
	// full segments (2 per RFC 1122).
	AckEvery int
	// SACK enables selective acknowledgments (on for all services
	// in the dataset).
	SACK bool
	// ReadRate limits how fast the client application drains the
	// receive buffer, in bytes/second. 0 means the app reads
	// instantly (window never closes).
	ReadRate int64
	// ReadInterval is the granularity of rate-limited reads.
	ReadInterval time.Duration
	// ReadPauses schedules application read stalls (disk flushes,
	// UI freezes) relative to connection start; they close the
	// window when data keeps arriving.
	ReadPauses []ReadPause
}

// ReadPause is one scheduled application read stall.
type ReadPause struct {
	At  time.Duration
	Dur time.Duration
}

// DefaultReceiverConfig models a modern desktop client.
func DefaultReceiverConfig() ReceiverConfig {
	return ReceiverConfig{
		MSS:          1460,
		InitRwnd:     65535,
		DelAckDelay:  40 * time.Millisecond,
		AckEvery:     2,
		SACK:         true,
		ReadInterval: 10 * time.Millisecond,
	}
}

// ReceiverStats counts receiver-side events.
type ReceiverStats struct {
	BytesReceived      int64
	SegmentsReceived   int
	DuplicateSegments  int
	OutOfOrderSegments int
	DSACKsSent         int
	AcksSent           int
	ZeroWindowAcks     int
	WindowUpdates      int
}

// span is a half-open byte range [l, r) in unwrapped stream offsets.
type span struct{ l, r uint64 }

// Receiver is the client-side endpoint: reassembly, delayed ACKs,
// SACK/DSACK generation and finite-buffer window management.
type Receiver struct {
	sm  *sim.Simulator
	cfg ReceiverConfig

	// Output transmits a pure ACK toward the server; the connection
	// stamps the client's Seq before the wire.
	Output func(seg *trace.Segment)

	// OnDeliver, if set, observes in-order data as the app would
	// read it (byte count per advance).
	OnDeliver func(n int)

	// rcvNxt and readPtr are unwrapped stream offsets; the low 32 bits
	// are the wire value. Reassembly happens entirely in offset space
	// so ordering survives sequence numbers wrapping past 2^32.
	rcvNxt  uint64
	readPtr uint64
	u       seqspace.Unwrapper
	ooo     []span // recency-ordered (most recent first)

	pendingSegs int // full segments since last ACK
	delack      *sim.Timer
	readTimer   *sim.Timer
	readPaused  bool
	pausedUntil sim.Time

	lastAdvertised int
	everAdvertised bool

	// tsRecent is the RFC 7323 ts_recent: the TSVal of the last
	// segment that touched the left edge of the window, echoed back
	// in every ACK so the sender can take unambiguous RTT samples.
	tsRecent sim.Time

	// truth, when set, observes zero-window open/close transitions for
	// the ground-truth recorder; truthZero tracks the reported state.
	truth     TruthSink
	truthZero bool

	stats ReceiverStats
}

// NewReceiver builds a receiver whose stream starts at startSeq (1
// after the SYN).
func NewReceiver(s *sim.Simulator, cfg ReceiverConfig, startSeq uint32) *Receiver {
	if cfg.MSS <= 0 {
		panic("tcpsim: MSS must be positive")
	}
	if cfg.BufSize == 0 {
		cfg.BufSize = cfg.InitRwnd
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 2
	}
	if cfg.ReadInterval <= 0 {
		cfg.ReadInterval = 10 * time.Millisecond
	}
	r := &Receiver{
		sm:  s,
		cfg: cfg,
	}
	r.rcvNxt = r.u.Unwrap(startSeq)
	r.readPtr = r.rcvNxt
	r.delack = sim.NewTimer(s, r.onDelAck)
	r.readTimer = sim.NewTimer(s, r.onRead)
	for _, p := range cfg.ReadPauses {
		dur := p.Dur
		s.Schedule(p.At, func() { r.PauseReading(dur) })
	}
	return r
}

// Stats returns a copy of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// RcvNxt reports the next expected in-order byte as a wire value.
func (r *Receiver) RcvNxt() uint32 { return uint32(r.rcvNxt) }

// rawWindow is the free buffer space in bytes.
func (r *Receiver) rawWindow() int {
	used := int(r.rcvNxt - r.readPtr)
	for _, sp := range r.ooo {
		used += int(sp.r - sp.l)
	}
	w := r.cfg.BufSize - used
	if w < 0 {
		w = 0
	}
	return w
}

// Window reports the advertisable receive window with receiver-side
// silly-window-syndrome avoidance (RFC 1122 §4.2.3.3): windows below
// min(MSS, BufSize/2) are advertised as zero rather than dribbled
// out. This is the mechanism that turns a slow-reading client with a
// small buffer into the paper's zero-window stalls.
func (r *Receiver) Window() int {
	w := r.rawWindow()
	threshold := r.cfg.MSS
	if half := r.cfg.BufSize / 2; half < threshold {
		threshold = half
	}
	if w < threshold {
		return 0
	}
	return w
}

// PauseReading suspends the application's buffer drain for d,
// modelling a stalled client app (disk write, UI freeze); the window
// closes if data keeps arriving. It applies to both rate-limited and
// instant-read receivers.
func (r *Receiver) PauseReading(d time.Duration) {
	until := r.sm.Now().Add(d)
	if until > r.pausedUntil {
		r.pausedUntil = until
	}
	r.readPaused = true
	r.readTimer.Stop()
	r.sm.Schedule(d, func() {
		// Overlapping pauses: only the last one unpauses.
		if r.sm.Now() < r.pausedUntil {
			return
		}
		r.readPaused = false
		if r.cfg.ReadRate == 0 {
			r.drainInstant()
		} else {
			r.scheduleRead()
		}
	})
}

// drainInstant consumes everything buffered (instant-read mode) and
// reopens the window if it had closed.
func (r *Receiver) drainInstant() {
	prevWnd := r.Window()
	delivered := int(r.rcvNxt - r.readPtr)
	r.readPtr = r.rcvNxt
	if r.OnDeliver != nil && delivered > 0 {
		r.OnDeliver(delivered)
	}
	if prevWnd < r.cfg.MSS && r.Window() >= r.cfg.MSS {
		r.stats.WindowUpdates++
		r.sendAck(nil)
	}
}

// HandleData processes an arriving server segment (data, zero-window
// probe, or FIN-bearing).
func (r *Receiver) HandleData(seg *trace.Segment) {
	r.stats.SegmentsReceived++
	// Unwrap the wire sequence into offset space once; every ordering
	// decision below compares offsets, never raw uint32s.
	off := r.u.Unwrap(seg.Seq)
	// RFC 7323: update ts_recent when the segment covers (or abuts)
	// the next expected byte.
	if seg.TSVal > 0 && off <= r.rcvNxt {
		r.tsRecent = seg.TSVal
	}
	if seg.Len == 0 {
		// A bare segment below the window edge is a zero-window probe
		// (seq = snd_una − 1 in Linux); RFC 793 obliges an ACK with
		// the current window. In-window bare ACKs are not answered —
		// ACKing ACKs would loop.
		if off < r.rcvNxt {
			r.sendAck(nil)
		}
		return
	}
	r.stats.BytesReceived += int64(seg.Len)
	end := off + uint64(seg.Len)
	switch {
	case end <= r.rcvNxt:
		// Full duplicate: DSACK (RFC 2883) right away.
		r.stats.DuplicateSegments++
		r.stats.DSACKsSent++
		dup := span{off, end}
		r.sendAck(&dup)
		return
	case off > r.rcvNxt:
		// Out of order: queue and emit an immediate dupack with SACK.
		r.stats.OutOfOrderSegments++
		r.insertOOO(span{off, end})
		r.sendAck(nil)
		return
	default:
		// In-order (possibly overlapping the left edge).
		wasDup := off < r.rcvNxt
		r.advance(end)
		if wasDup {
			r.stats.DuplicateSegments++
		}
		// Filling a gap (ooo pending before) warrants an immediate
		// ACK so the sender sees progress.
		if len(r.ooo) > 0 || wasDup {
			r.sendAck(nil)
			return
		}
		r.pendingSegs++
		if r.pendingSegs >= r.cfg.AckEvery {
			r.sendAck(nil)
		} else if !r.delack.Armed() {
			r.delack.Reset(r.cfg.DelAckDelay)
		}
	}
}

// advance moves rcvNxt to at least end, merging any contiguous
// out-of-order spans, and drives the app-read model.
func (r *Receiver) advance(end uint64) {
	if end > r.rcvNxt {
		r.rcvNxt = end
	}
	merged := true
	for merged {
		merged = false
		for i, sp := range r.ooo {
			if sp.l <= r.rcvNxt {
				if sp.r > r.rcvNxt {
					r.rcvNxt = sp.r
				}
				r.ooo = append(r.ooo[:i], r.ooo[i+1:]...)
				merged = true
				break
			}
		}
	}
	if r.cfg.ReadRate == 0 {
		if !r.readPaused {
			delivered := int(r.rcvNxt - r.readPtr)
			r.readPtr = r.rcvNxt
			if r.OnDeliver != nil && delivered > 0 {
				r.OnDeliver(delivered)
			}
		}
	} else {
		r.scheduleRead()
	}
}

func (r *Receiver) scheduleRead() {
	if r.readPaused || r.readTimer.Armed() || r.readPtr >= r.rcvNxt {
		return
	}
	r.readTimer.Reset(r.cfg.ReadInterval)
}

func (r *Receiver) onRead() {
	if r.readPaused {
		return
	}
	chunk := int64(float64(r.cfg.ReadRate) * r.cfg.ReadInterval.Seconds())
	if chunk < 1 {
		chunk = 1
	}
	avail := int64(r.rcvNxt - r.readPtr)
	if chunk > avail {
		chunk = avail
	}
	prevWnd := r.Window()
	r.readPtr += uint64(chunk)
	if r.OnDeliver != nil && chunk > 0 {
		r.OnDeliver(int(chunk))
	}
	// Window update: if we had advertised a closed (or sub-MSS)
	// window and it reopened meaningfully, tell the sender.
	if prevWnd < r.cfg.MSS && r.Window() >= r.cfg.MSS {
		r.stats.WindowUpdates++
		r.sendAck(nil)
	}
	r.scheduleRead()
}

// insertOOO records an out-of-order span, most recent first, merging
// overlaps.
func (r *Receiver) insertOOO(sp span) {
	out := r.ooo[:0]
	for _, old := range r.ooo {
		if old.r < sp.l || old.l > sp.r {
			out = append(out, old)
			continue
		}
		if old.l < sp.l {
			sp.l = old.l
		}
		if old.r > sp.r {
			sp.r = old.r
		}
	}
	r.ooo = append([]span{sp}, out...)
}

func (r *Receiver) onDelAck() {
	if r.pendingSegs > 0 {
		r.sendAck(nil)
	}
}

// sendAck emits a pure ACK with the current cumulative point, window
// and SACK blocks; dsack, when non-nil, is prepended per RFC 2883.
func (r *Receiver) sendAck(dsack *span) {
	r.pendingSegs = 0
	r.delack.Stop()
	w := r.Window()
	seg := &trace.Segment{
		Flags: packet.FlagACK,
		Ack:   uint32(r.rcvNxt),
		Wnd:   w,
		TSVal: r.sm.Now(),
		TSEcr: r.tsRecent,
	}
	if r.cfg.SACK {
		if dsack != nil {
			seg.SACK.Append(packet.SACKBlock{Left: uint32(dsack.l), Right: uint32(dsack.r)})
		}
		max := packet.MaxSACKBlocks - seg.SACK.Len()
		for i, sp := range r.ooo {
			if i >= max {
				break
			}
			seg.SACK.Append(packet.SACKBlock{Left: uint32(sp.l), Right: uint32(sp.r)})
		}
	}
	if w == 0 {
		r.stats.ZeroWindowAcks++
	}
	if r.truth != nil && (w == 0) != r.truthZero {
		r.truthZero = w == 0
		r.truth.ZeroWindow(r.sm.Now(), r.truthZero)
	}
	r.lastAdvertised = w
	r.everAdvertised = true
	r.stats.AcksSent++
	if r.Output == nil {
		panic("tcpsim: Receiver.Output not set")
	}
	r.Output(seg)
}
