package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded source with the distributions the simulator's
// traffic and path models draw from. All randomness in a run flows
// through RNGs derived from the run seed, so runs are reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator; useful to decouple the random
// streams of different components so adding draws to one does not
// perturb another.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// LogNormal returns a log-normal sample parameterized by the mean and
// standard deviation of the underlying normal (mu, sigma).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// LogNormalMean returns a log-normal sample parameterized by the
// desired mean of the log-normal itself and the sigma of the
// underlying normal. Handy for calibrating flow-size models to a
// target average.
func (g *RNG) LogNormalMean(mean, sigma float64) float64 {
	mu := math.Log(mean) - sigma*sigma/2
	return g.LogNormal(mu, sigma)
}

// Choice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Panics if all weights are zero.
func (g *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sim: Choice with non-positive total weight")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
