package netem

import (
	"time"

	"tcpstall/internal/sim"
)

// LossModel decides, packet by packet, whether the path drops it.
// Implementations draw from the supplied RNG so a path's drop pattern
// is reproducible for a fixed seed; they also see the virtual time so
// burst state can decay across idle periods.
type LossModel interface {
	Drop(rng *sim.RNG, now sim.Time) bool
}

// NoLoss never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*sim.RNG, sim.Time) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	P float64
}

// Drop implements LossModel.
func (b Bernoulli) Drop(rng *sim.RNG, _ sim.Time) bool { return rng.Bool(b.P) }

// GilbertElliott is the classic two-state burst-loss model: the
// channel alternates between a Good state (loss probability LossGood,
// usually ~0) and a Bad state (loss probability LossBad, high), with
// geometric sojourn times. It produces the clustered drops behind the
// paper's "continuous loss" and "double retransmission" stalls.
type GilbertElliott struct {
	// PGoodToBad is the per-packet probability of entering the Bad
	// state from Good; PBadToGood the reverse.
	PGoodToBad float64
	PBadToGood float64
	// LossGood and LossBad are the per-packet drop probabilities in
	// each state.
	LossGood float64
	LossBad  float64
	// IdleReset returns the channel to Good after this much silence
	// (default 250ms): congestion episodes are time-correlated, so a
	// retransmission seconds later must not resample a bad state
	// frozen from the last packet. Without it, RTO backoff chains
	// can be swallowed whole — an artifact, not a network.
	IdleReset time.Duration

	bad      bool
	lastSeen sim.Time
	seenAny  bool
}

// Drop implements LossModel, advancing the channel state first.
func (g *GilbertElliott) Drop(rng *sim.RNG, now sim.Time) bool {
	reset := g.IdleReset
	if reset <= 0 {
		reset = 250 * time.Millisecond
	}
	if g.seenAny && now.Sub(g.lastSeen) > reset {
		g.bad = false
	}
	g.lastSeen = now
	g.seenAny = true
	if g.bad {
		if rng.Bool(g.PBadToGood) {
			g.bad = false
		}
	} else {
		if rng.Bool(g.PGoodToBad) {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return rng.Bool(p)
}

// Deterministic drops exactly the packets whose 0-based index is
// listed. It exists for scripted scenarios (e.g. the Figure 2
// illustrative flow) and for classifier ground-truth tests.
type Deterministic struct {
	Indices map[int]bool
	count   int
}

// DropList builds a Deterministic model from explicit indices.
func DropList(indices ...int) *Deterministic {
	m := make(map[int]bool, len(indices))
	for _, i := range indices {
		m[i] = true
	}
	return &Deterministic{Indices: m}
}

// Drop implements LossModel.
func (d *Deterministic) Drop(_ *sim.RNG, _ sim.Time) bool {
	drop := d.Indices[d.count]
	d.count++
	return drop
}
