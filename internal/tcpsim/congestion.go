package tcpsim

import (
	"math"

	"tcpstall/internal/sim"
)

// CongestionControl abstracts the congestion-avoidance window growth
// and the post-loss reduction target. Slow start (cwnd < ssthresh,
// +1 per ACKed segment), the Recovery rate-halving and the Loss-state
// cwnd=1 are mechanics shared by all algorithms and stay in the
// Sender; the algorithm decides how cwnd grows past ssthresh and
// where ssthresh lands after a loss event.
type CongestionControl interface {
	// Name identifies the algorithm ("reno", "cubic").
	Name() string
	// OnAckCA returns the new cwnd after one segment is cumulatively
	// acknowledged in congestion avoidance (Open state,
	// cwnd ≥ ssthresh).
	OnAckCA(cwnd float64, now sim.Time) float64
	// AfterLoss returns the new ssthresh for a loss event observed
	// at the given in-flight size, and records the epoch internally.
	AfterLoss(cwnd, inFlight float64, now sim.Time) float64
	// Reset clears epoch state (new connection reuse).
	Reset()
}

// RenoCC is classic Reno/NewReno congestion avoidance: cwnd grows by
// 1/cwnd per ACK; ssthresh halves the in-flight on loss. This matches
// the paper's Section 3.1 description of the production stack's
// behaviour and is the default.
type RenoCC struct{}

// Name implements CongestionControl.
func (RenoCC) Name() string { return "reno" }

// OnAckCA implements CongestionControl.
func (RenoCC) OnAckCA(cwnd float64, _ sim.Time) float64 {
	return cwnd + 1/cwnd
}

// AfterLoss implements CongestionControl.
func (RenoCC) AfterLoss(_, inFlight float64, _ sim.Time) float64 {
	s := inFlight / 2
	if s < 2 {
		s = 2
	}
	return s
}

// Reset implements CongestionControl.
func (RenoCC) Reset() {}

// CubicCC implements CUBIC (Ha, Rhee, Xu 2008) — the actual default
// congestion control of the paper's 2.6.32 kernel. The window grows
// along W(t) = C·(t−K)³ + Wmax with K = ∛(Wmax·β/C), clamped from
// below by the TCP-friendly Reno estimate.
type CubicCC struct {
	// C is the scaling constant (0.4 in the kernel) and Beta the
	// multiplicative decrease (0.3 ⇒ window ×0.7 after loss).
	C    float64
	Beta float64

	wMax       float64
	epochStart sim.Time
	hasEpoch   bool
	// Reno-friendly estimate state.
	ackCount float64
	tcpCwnd  float64
}

// NewCubic returns a CUBIC instance with the kernel's constants.
func NewCubic() *CubicCC {
	return &CubicCC{C: 0.4, Beta: 0.3}
}

// Name implements CongestionControl.
func (c *CubicCC) Name() string { return "cubic" }

// k returns the time (seconds) to grow back to wMax.
func (c *CubicCC) k() float64 {
	return math.Cbrt(c.wMax * c.Beta / c.C)
}

// OnAckCA implements CongestionControl.
func (c *CubicCC) OnAckCA(cwnd float64, now sim.Time) float64 {
	if !c.hasEpoch {
		// First CA ack after slow start without a loss epoch: treat
		// the current window as the plateau.
		c.hasEpoch = true
		c.epochStart = now
		if c.wMax < cwnd {
			c.wMax = cwnd
		}
		c.tcpCwnd = cwnd
		c.ackCount = 0
	}
	t := now.Sub(c.epochStart).Seconds()
	target := c.C*math.Pow(t-c.k(), 3) + c.wMax

	// TCP-friendly region: emulate Reno's growth so CUBIC never
	// underperforms it on short-RTT paths.
	c.ackCount++
	c.tcpCwnd += 1 / cwnd // ≈ Reno's per-ack increase
	if c.tcpCwnd > target {
		target = c.tcpCwnd
	}

	if target <= cwnd {
		// In the concave plateau: creep forward slowly.
		return cwnd + 0.01
	}
	// Standard CUBIC pacing: close the gap over one RTT's worth of
	// acks; per-ack increment (target − cwnd)/cwnd.
	return cwnd + (target-cwnd)/cwnd
}

// AfterLoss implements CongestionControl.
func (c *CubicCC) AfterLoss(cwnd, _ float64, now sim.Time) float64 {
	// Fast convergence: if the new max is below the previous one,
	// release extra bandwidth.
	if cwnd < c.wMax {
		c.wMax = cwnd * (2 - c.Beta) / 2
	} else {
		c.wMax = cwnd
	}
	c.epochStart = now
	c.hasEpoch = true
	c.tcpCwnd = cwnd * (1 - c.Beta)
	c.ackCount = 0
	s := cwnd * (1 - c.Beta)
	if s < 2 {
		s = 2
	}
	return s
}

// Reset implements CongestionControl.
func (c *CubicCC) Reset() {
	c.wMax = 0
	c.hasEpoch = false
	c.ackCount = 0
	c.tcpCwnd = 0
}
