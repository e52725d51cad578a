// Package netem models unidirectional network paths for the
// simulator: propagation delay with jitter, random and bursty loss, a
// token-rate bottleneck with a DropTail queue, and probabilistic
// reordering. Two Path values back to back form the bidirectional
// link a simulated TCP connection runs over.
package netem

import (
	"time"

	"tcpstall/internal/sim"
)

// Config parameterizes one direction of a path.
type Config struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform [0, Jitter) component per packet.
	Jitter time.Duration
	// JitterExp adds an exponential component with this mean per
	// packet — the heavy-tailed delay variation of wireless/DSL
	// access links that keeps RTTVAR (and hence the RTO) an order of
	// magnitude above the RTT, as in Figure 1b.
	JitterExp time.Duration
	// Loss decides random drops; nil means no loss.
	Loss LossModel
	// Bandwidth is the bottleneck rate in bytes/second; 0 means
	// unlimited (no serialization delay, no queue).
	Bandwidth int64
	// QueueLimit caps the bottleneck queue in packets (DropTail).
	// 0 means unlimited. Only meaningful with Bandwidth > 0.
	QueueLimit int
	// ReorderProb delays a packet by ReorderExtra with this
	// probability, modelling path-level reordering.
	ReorderProb  float64
	ReorderExtra time.Duration
	// SpikeEvery > 0 enables a background delay-spike process: at
	// exponential intervals (mean SpikeEvery) the path delay rises
	// by ~exp(SpikeExtra) for ~exp(SpikeDur) — the RTT-variation
	// episodes behind the paper's packet-delay stalls (Figure 2).
	SpikeEvery time.Duration
	SpikeExtra time.Duration
	SpikeDur   time.Duration
	// FIFOEnforce prevents later packets from overtaking earlier
	// ones (queue-like behaviour during spikes).
	FIFOEnforce bool
	// BurstEvery > 0 enables time-based loss bursts: at exponential
	// intervals (mean BurstEvery) the path drops packets with
	// probability BurstLossP for ~exp(BurstDur). Unlike the
	// packet-indexed Gilbert–Elliott model, these bursts span wall
	// time, so retransmissions sent an RTT later can be swallowed by
	// the same episode — the paper's double-retransmission and
	// continuous-loss conditions.
	BurstEvery time.Duration
	BurstDur   time.Duration
	BurstLossP float64
}

// Stats counts a path's traffic.
type Stats struct {
	Sent         int
	Delivered    int
	LossDrops    int
	QueueDrops   int
	Reordered    int
	Spikes       int
	Bursts       int
	BytesIn      int64
	BytesOut     int64
	MaxQueueSeen int
}

// Path is one direction of a network link. Deliver is invoked (at a
// later virtual instant) for every packet that survives the path.
type Path struct {
	sim *sim.Simulator
	rng *sim.RNG
	cfg Config

	// Deliver receives surviving packets. Must be set before Send.
	Deliver func(pkt any)

	// OnDrop, if set, observes every dropped packet.
	OnDrop func(pkt any)

	busyUntil    sim.Time
	queueLen     int
	burstActive  bool
	spikeExtra   time.Duration
	lastDelivery sim.Time
	stats        Stats
}

// New builds a path on the simulator with its own forked RNG.
func New(s *sim.Simulator, rng *sim.RNG, cfg Config) *Path {
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	p := &Path{sim: s, rng: rng.Fork(), cfg: cfg}
	if cfg.SpikeEvery > 0 {
		p.scheduleSpike()
	}
	if cfg.BurstEvery > 0 {
		p.scheduleBurst()
	}
	return p
}

func (p *Path) scheduleBurst() {
	wait := time.Duration(p.rng.Exponential(float64(p.cfg.BurstEvery)))
	p.sim.Schedule(wait, func() {
		p.burstActive = true
		p.stats.Bursts++
		dur := time.Duration(p.rng.Exponential(float64(p.cfg.BurstDur)))
		p.sim.Schedule(dur, func() { p.burstActive = false })
		p.scheduleBurst()
	})
}

func (p *Path) scheduleSpike() {
	wait := time.Duration(p.rng.Exponential(float64(p.cfg.SpikeEvery)))
	p.sim.Schedule(wait, func() {
		p.spikeExtra = time.Duration(p.rng.Exponential(float64(p.cfg.SpikeExtra)))
		p.stats.Spikes++
		dur := time.Duration(p.rng.Exponential(float64(p.cfg.SpikeDur)))
		p.sim.Schedule(dur, func() { p.spikeExtra = 0 })
		p.scheduleSpike()
	})
}

// SetDelay changes the propagation delay mid-run (used by scripted
// scenarios that inject RTT variation).
func (p *Path) SetDelay(d time.Duration) { p.cfg.Delay = d }

// SetLoss swaps the loss model mid-run.
func (p *Path) SetLoss(m LossModel) {
	if m == nil {
		m = NoLoss{}
	}
	p.cfg.Loss = m
}

// Send pushes a packet of the given wire size into the path. The
// packet is dropped (loss model or full queue) or scheduled for
// delivery after serialization + propagation + jitter.
func (p *Path) Send(pkt any, size int) {
	p.stats.Sent++
	p.stats.BytesIn += int64(size)
	now := p.sim.Now()

	if p.cfg.Loss.Drop(p.rng, now) || (p.burstActive && p.rng.Bool(p.cfg.BurstLossP)) {
		p.stats.LossDrops++
		if p.OnDrop != nil {
			p.OnDrop(pkt)
		}
		return
	}

	var depart sim.Time
	if p.cfg.Bandwidth > 0 {
		if p.cfg.QueueLimit > 0 && p.queueLen >= p.cfg.QueueLimit {
			p.stats.QueueDrops++
			if p.OnDrop != nil {
				p.OnDrop(pkt)
			}
			return
		}
		ser := time.Duration(float64(size) / float64(p.cfg.Bandwidth) * float64(time.Second))
		start := now
		if p.busyUntil > start {
			start = p.busyUntil
		}
		depart = start.Add(ser)
		p.busyUntil = depart
		p.queueLen++
		if p.queueLen > p.stats.MaxQueueSeen {
			p.stats.MaxQueueSeen = p.queueLen
		}
		p.sim.ScheduleAt(depart, func() { p.queueLen-- })
	} else {
		depart = now
	}

	delay := p.cfg.Delay + p.spikeExtra
	if p.cfg.Jitter > 0 {
		delay += time.Duration(p.rng.Float64() * float64(p.cfg.Jitter))
	}
	if p.cfg.JitterExp > 0 {
		delay += time.Duration(p.rng.Exponential(float64(p.cfg.JitterExp)))
	}
	if p.cfg.ReorderProb > 0 && p.rng.Bool(p.cfg.ReorderProb) {
		delay += p.cfg.ReorderExtra
		p.stats.Reordered++
	}

	deliverAt := depart.Add(delay)
	if p.cfg.FIFOEnforce && deliverAt < p.lastDelivery {
		deliverAt = p.lastDelivery
	}
	if p.cfg.FIFOEnforce {
		p.lastDelivery = deliverAt
	}

	p.sim.ScheduleAt(deliverAt, func() {
		p.stats.Delivered++
		p.stats.BytesOut += int64(size)
		if p.Deliver == nil {
			panic("netem: Path.Deliver not set")
		}
		p.Deliver(pkt)
	})
}
