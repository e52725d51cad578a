package netem

import (
	"math"
	"testing"
	"time"

	"tcpstall/internal/sim"
)

func newPath(cfg Config) (*sim.Simulator, *Path, *[]any, *[]sim.Time) {
	s := sim.New()
	p := New(s, sim.NewRNG(1), cfg)
	var got []any
	var at []sim.Time
	p.Deliver = func(pkt any) {
		got = append(got, pkt)
		at = append(at, s.Now())
	}
	return s, p, &got, &at
}

func TestPropagationDelay(t *testing.T) {
	s, p, got, at := newPath(Config{Delay: 50 * time.Millisecond})
	p.Send("a", 100)
	s.Run()
	if len(*got) != 1 || (*got)[0] != "a" {
		t.Fatalf("delivered = %v", *got)
	}
	if (*at)[0] != sim.Time(50*time.Millisecond) {
		t.Errorf("delivered at %v, want 50ms", (*at)[0])
	}
}

func TestJitterBounds(t *testing.T) {
	s, p, _, at := newPath(Config{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	for i := 0; i < 200; i++ {
		p.Send(i, 100)
	}
	s.Run()
	for _, ts := range *at {
		d := time.Duration(ts)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delivery at %v outside [10ms, 15ms)", d)
		}
	}
}

func TestBernoulliLossRate(t *testing.T) {
	s, p, got, _ := newPath(Config{Loss: Bernoulli{P: 0.3}})
	const n = 20000
	for i := 0; i < n; i++ {
		p.Send(i, 100)
	}
	s.Run()
	rate := 1 - float64(len(*got))/n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("loss rate = %.3f, want ≈0.3", rate)
	}
	st := p.stats
	if st.Sent != n || st.LossDrops+st.Delivered != n {
		t.Errorf("stats don't add up: %+v", st)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// A GE channel with sticky Bad state must produce more
	// consecutive-loss pairs than an iid channel at the same average
	// rate.
	rng := sim.NewRNG(7)
	ge := &GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.3, LossGood: 0, LossBad: 0.8}
	const n = 100000
	var drops []bool
	lost := 0
	for i := 0; i < n; i++ {
		// Tight packet spacing (1ms) keeps the burst state alive.
		d := ge.Drop(rng, sim.Time(time.Duration(i)*time.Millisecond))
		drops = append(drops, d)
		if d {
			lost++
		}
	}
	rate := float64(lost) / n
	if rate <= 0.005 || rate >= 0.1 {
		t.Fatalf("GE loss rate = %.4f, outside sane band", rate)
	}
	pairs := 0
	for i := 1; i < n; i++ {
		if drops[i] && drops[i-1] {
			pairs++
		}
	}
	pPairGE := float64(pairs) / float64(lost)
	// For iid at the same rate, P(next also lost) = rate. GE should
	// be far above it.
	if pPairGE < 3*rate {
		t.Errorf("GE conditional loss %.4f not bursty vs marginal %.4f", pPairGE, rate)
	}
}

func TestDeterministicLoss(t *testing.T) {
	s, p, got, _ := newPath(Config{Loss: DropList(1, 3)})
	var dropped []any
	p.OnDrop = func(pkt any) { dropped = append(dropped, pkt) }
	for i := 0; i < 5; i++ {
		p.Send(i, 100)
	}
	s.Run()
	if len(*got) != 3 {
		t.Fatalf("delivered %d, want 3", len(*got))
	}
	if len(dropped) != 2 || dropped[0] != 1 || dropped[1] != 3 {
		t.Errorf("dropped = %v, want [1 3]", dropped)
	}
	if m := p.stats; m.LossDrops != 2 {
		t.Errorf("LossDrops = %d", m.LossDrops)
	}
}

func TestBottleneckSerialization(t *testing.T) {
	// 1000 B/s, two 500-byte packets sent together: second departs
	// 0.5s after the first.
	s, p, _, at := newPath(Config{Bandwidth: 1000})
	p.Send("a", 500)
	p.Send("b", 500)
	s.Run()
	if len(*at) != 2 {
		t.Fatalf("delivered %d", len(*at))
	}
	if (*at)[0] != sim.Time(500*time.Millisecond) {
		t.Errorf("first at %v, want 500ms", (*at)[0])
	}
	if (*at)[1] != sim.Time(time.Second) {
		t.Errorf("second at %v, want 1s", (*at)[1])
	}
}

func TestBottleneckIdleReset(t *testing.T) {
	// After the queue drains, a later packet sees only its own
	// serialization time.
	s, p, _, at := newPath(Config{Bandwidth: 1000})
	p.Send("a", 1000)
	s.RunUntil(sim.Time(5 * time.Second))
	p.Send("b", 1000)
	s.Run()
	if (*at)[1] != sim.Time(6*time.Second) {
		t.Errorf("second at %v, want 6s", (*at)[1])
	}
}

func TestDropTailQueue(t *testing.T) {
	s, p, got, _ := newPath(Config{Bandwidth: 1000, QueueLimit: 2})
	for i := 0; i < 10; i++ {
		p.Send(i, 1000) // 1s serialization each; only 2 fit
	}
	s.Run()
	if len(*got) != 2 {
		t.Errorf("delivered %d, want 2 (DropTail)", len(*got))
	}
	st := p.stats
	if st.QueueDrops != 8 {
		t.Errorf("QueueDrops = %d, want 8", st.QueueDrops)
	}
	if st.MaxQueueSeen != 2 {
		t.Errorf("MaxQueueSeen = %d, want 2", st.MaxQueueSeen)
	}
}

func TestQueueDrainAllowsLaterTraffic(t *testing.T) {
	s, p, got, _ := newPath(Config{Bandwidth: 1000, QueueLimit: 1})
	p.Send("a", 1000)
	p.Send("b", 1000) // dropped, queue full
	s.RunUntil(sim.Time(1500 * time.Millisecond))
	p.Send("c", 1000) // queue drained at 1s, accepted
	s.Run()
	if len(*got) != 2 {
		t.Errorf("delivered %d, want 2", len(*got))
	}
}

func TestReordering(t *testing.T) {
	s, p, got, _ := newPath(Config{
		Delay: 10 * time.Millisecond, ReorderProb: 1, ReorderExtra: 20 * time.Millisecond,
	})
	p.Send("late", 100)
	// Second packet sent 1ms later but without the reorder penalty
	// (swap probability to 0 before it).
	s.Schedule(time.Millisecond, func() {
		p.cfg.ReorderProb = 0
		p.Send("early", 100)
	})
	s.Run()
	if (*got)[0] != "early" || (*got)[1] != "late" {
		t.Errorf("order = %v, want [early late]", *got)
	}
	if p.stats.Reordered != 1 {
		t.Errorf("Reordered = %d", p.stats.Reordered)
	}
}

func TestFIFOWithoutPerturbation(t *testing.T) {
	s, p, got, _ := newPath(Config{Delay: 30 * time.Millisecond, Bandwidth: 1e6})
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Millisecond, func() { p.Send(i, 1500) })
	}
	s.Run()
	for i := 0; i < 50; i++ {
		if (*got)[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, (*got)[i])
		}
	}
}

func TestSetDelayAndLossMidRun(t *testing.T) {
	s, p, _, at := newPath(Config{Delay: 10 * time.Millisecond})
	p.Send(1, 100)
	s.Schedule(5*time.Millisecond, func() {
		p.SetDelay(100 * time.Millisecond)
		p.SetLoss(Bernoulli{P: 1})
		p.Send(2, 100) // lost
		p.SetLoss(nil) // back to NoLoss
		p.Send(3, 100) // delivered with new delay
	})
	s.Run()
	if len(*at) != 2 {
		t.Fatalf("delivered %d, want 2", len(*at))
	}
	if (*at)[1] != sim.Time(105*time.Millisecond) {
		t.Errorf("second delivery at %v, want 105ms", (*at)[1])
	}
}

func TestDeliverUnsetPanics(t *testing.T) {
	s := sim.New()
	p := New(s, sim.NewRNG(1), Config{})
	p.Send("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic with unset Deliver")
		}
	}()
	s.Run()
}

func TestStatsBytes(t *testing.T) {
	s, p, _, _ := newPath(Config{Loss: DropList(0)})
	p.Send("a", 100) // dropped
	p.Send("b", 200)
	s.Run()
	st := p.stats
	if st.BytesIn != 300 || st.BytesOut != 200 {
		t.Errorf("bytes = %d/%d, want 300/200", st.BytesIn, st.BytesOut)
	}
}

func TestDelaySpikes(t *testing.T) {
	s := sim.New()
	p := New(s, sim.NewRNG(3), Config{
		Delay:      10 * time.Millisecond,
		SpikeEvery: 200 * time.Millisecond,
		SpikeExtra: 100 * time.Millisecond,
		SpikeDur:   100 * time.Millisecond,
	})
	var delays []time.Duration
	var sentAt []sim.Time
	p.Deliver = func(pkt any) {
		i := pkt.(int)
		delays = append(delays, time.Duration(s.Now()-sentAt[i]))
	}
	for i := 0; i < 300; i++ {
		i := i
		s.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			sentAt = append(sentAt, s.Now())
			p.Send(i, 100)
		})
	}
	s.RunUntil(sim.Time(4 * time.Second))
	if p.stats.Spikes == 0 {
		t.Fatal("no spikes fired")
	}
	spiked := 0
	for _, d := range delays {
		if d > 15*time.Millisecond {
			spiked++
		}
	}
	if spiked == 0 {
		t.Error("no packet saw spike-inflated delay")
	}
	if spiked == len(delays) {
		t.Error("every packet inflated: spikes should be episodic")
	}
}

func TestLossBursts(t *testing.T) {
	s := sim.New()
	p := New(s, sim.NewRNG(5), Config{
		BurstEvery: 300 * time.Millisecond,
		BurstDur:   150 * time.Millisecond,
		BurstLossP: 1,
	})
	delivered := 0
	p.Deliver = func(any) { delivered++ }
	const n = 1000
	for i := 0; i < n; i++ {
		s.Schedule(time.Duration(i)*5*time.Millisecond, func() { p.Send(0, 100) })
	}
	s.RunUntil(sim.Time(6 * time.Second))
	st := p.stats
	if st.Bursts == 0 {
		t.Fatal("no bursts fired")
	}
	if st.LossDrops == 0 {
		t.Fatal("bursts dropped nothing")
	}
	rate := float64(st.LossDrops) / n
	// Expected ≈ dur/(every+dur) ≈ 1/3, loosely.
	if rate < 0.1 || rate > 0.6 {
		t.Errorf("burst loss rate = %.2f, outside plausible band", rate)
	}
	// Drops must be clustered: conditional drop probability after a
	// drop far above the marginal is implied by full-burst drops; we
	// check at least one run of ≥5 consecutive drops occurred by
	// construction (150ms burst spans 30 packets at 5ms spacing).
	if st.LossDrops < 20 {
		t.Errorf("LossDrops = %d, want sizable clusters", st.LossDrops)
	}
}

func TestGilbertElliottIdleReset(t *testing.T) {
	rng := sim.NewRNG(11)
	ge := &GilbertElliott{PGoodToBad: 1, PBadToGood: 0, LossBad: 1, IdleReset: 100 * time.Millisecond}
	// First packet flips to Bad and drops; state is now stuck Bad.
	if !ge.Drop(rng, 0) {
		t.Fatal("first packet should drop (PGoodToBad=1, LossBad=1)")
	}
	if !ge.bad {
		t.Fatal("channel should be Bad")
	}
	// A packet 50ms later still sees the Bad state.
	if !ge.Drop(rng, sim.Time(50*time.Millisecond)) {
		t.Error("within IdleReset the burst persists")
	}
	// After 200ms of silence the episode has passed... though with
	// PGoodToBad=1 it immediately re-enters Bad; use a fresh model to
	// observe the reset itself.
	ge2 := &GilbertElliott{PGoodToBad: 0, PBadToGood: 0, LossBad: 1, IdleReset: 100 * time.Millisecond}
	ge2.bad = true
	ge2.seenAny = true
	ge2.lastSeen = 0
	if ge2.Drop(rng, sim.Time(500*time.Millisecond)) {
		t.Error("idle reset should have returned the channel to Good")
	}
	if ge2.bad {
		t.Error("channel still Bad after idle reset")
	}
}

func TestDeterministicCount(t *testing.T) {
	d := DropList(0)
	d.Drop(nil, 0)
	d.Drop(nil, 0)
	if d.count != 2 {
		t.Errorf("count = %d", d.count)
	}
}

func TestConfigAccessor(t *testing.T) {
	s := sim.New()
	cfg := Config{Delay: 7 * time.Millisecond}
	p := New(s, sim.NewRNG(1), cfg)
	if p.cfg.Delay != 7*time.Millisecond {
		t.Error("config mismatch")
	}
}

func TestJitterExp(t *testing.T) {
	s, p, _, at := newPath(Config{Delay: 10 * time.Millisecond, JitterExp: 20 * time.Millisecond})
	for i := 0; i < 500; i++ {
		p.Send(i, 100)
	}
	s.Run()
	var sum time.Duration
	maxD := time.Duration(0)
	for _, ts := range *at {
		d := time.Duration(ts)
		if d < 10*time.Millisecond {
			t.Fatalf("delay below base: %v", d)
		}
		if d > maxD {
			maxD = d
		}
		sum += d - 10*time.Millisecond
	}
	mean := sum / time.Duration(len(*at))
	if mean < 15*time.Millisecond || mean > 25*time.Millisecond {
		t.Errorf("exp jitter mean = %v, want ≈20ms", mean)
	}
	if maxD < 50*time.Millisecond {
		t.Errorf("exp jitter lacks a heavy tail: max extra %v", maxD-10*time.Millisecond)
	}
}
