package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != Time(time.Millisecond) || fired[1] != Time(2*time.Millisecond) {
		t.Errorf("fired at %v, want [1ms 2ms]", fired)
	}
}

func TestTimerStopCancels(t *testing.T) {
	s := New()
	ran := false
	tm := NewTimer(s, func() { ran = true })
	tm.Reset(time.Millisecond)
	if !tm.Armed() || len(s.queue) != 1 {
		t.Fatalf("armed timer: Armed() = %v with %d events queued, want true with 1", tm.Armed(), len(s.queue))
	}
	tm.Stop()
	if tm.Armed() || len(s.queue) != 0 {
		t.Errorf("stopped timer: Armed() = %v with %d events queued, want false with 0", tm.Armed(), len(s.queue))
	}
	s.Run()
	if ran {
		t.Error("stopped timer fired")
	}
	// Double stop and stop after firing are no-ops.
	tm.Stop()
	tm.Reset(0)
	s.Run()
	if !ran {
		t.Error("re-armed timer did not fire")
	}
	tm.Stop()
	if len(s.queue) != 0 {
		t.Errorf("%d events queued after the timer fired, want 0", len(s.queue))
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired int
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	s.RunUntil(Time(3 * time.Second))
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
	if len(s.queue) != 2 {
		t.Errorf("%d events queued, want 2", len(s.queue))
	}
	s.RunFor(10 * time.Second)
	if fired != 5 {
		t.Errorf("after RunFor fired = %d, want 5", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(Time(time.Hour))
	if s.Now() != Time(time.Hour) {
		t.Errorf("Now() = %v, want 1h", s.Now())
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {
		// Scheduling into the past must clamp to the present, not
		// rewind the clock.
		s.ScheduleAt(0, func() {
			if s.Now() != Time(time.Second) {
				t.Errorf("past-scheduled event ran at %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
}

func TestTimerResetStop(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Armed() {
		t.Fatal("new timer should be stopped")
	}
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond) // supersedes the first arming
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	if at := tm.ev.at; at != Time(20*time.Millisecond) {
		t.Errorf("timer armed for %v, want 20ms", at)
	}
	if len(s.queue) != 1 {
		t.Errorf("%d events queued, want 1: a reset re-keys the timer's event in place", len(s.queue))
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (reset must cancel prior arming)", fired)
	}
	if tm.Armed() {
		t.Error("timer should disarm after firing")
	}

	tm.Reset(time.Millisecond)
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d after Stop, want 1", fired)
	}
}

// A reset orders its timer after everything scheduled before it, as a
// newly scheduled event would, even when the instant is unchanged.
func TestTimerResetTakesFreshSequence(t *testing.T) {
	s := New()
	var got []string
	tm := NewTimer(s, func() { got = append(got, "timer") })
	tm.Reset(10 * time.Millisecond)
	s.Schedule(10*time.Millisecond, func() { got = append(got, "a") })
	tm.Reset(10 * time.Millisecond)
	s.Schedule(10*time.Millisecond, func() { got = append(got, "b") })
	s.Run()
	if want := []string{"a", "timer", "b"}; !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1500 * time.Millisecond)
	if a.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v", a.Seconds())
	}
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Errorf("Sub = %v", b.Sub(a))
	}
	if a.String() != "1500.000ms" {
		t.Errorf("String() = %q", a.String())
	}
}

// Property: for any batch of scheduled delays, events fire in
// nondecreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		s := New()
		var fired []Time
		var maxT Time
		for _, d := range delaysMS {
			dd := time.Duration(d) * time.Millisecond
			if Time(dd) > maxT {
				maxT = Time(dd)
			}
			s.Schedule(dd, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork()
	// Draws on g after forking must not affect f1's stream.
	want := make([]float64, 10)
	g2 := NewRNG(7)
	f2 := g2.Fork()
	for i := range want {
		want[i] = f2.Float64()
	}
	g.Float64()
	g.Float64()
	for i := range want {
		if got := f1.Float64(); got != want[i] {
			t.Fatal("fork stream perturbed by parent draws")
		}
	}
}

func TestRNGDistributionMoments(t *testing.T) {
	g := NewRNG(1)
	const n = 200000

	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(100)
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Errorf("exponential mean = %.2f, want ≈100", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += g.LogNormalMean(50, 1.0)
	}
	if mean := sum / n; math.Abs(mean-50)/50 > 0.05 {
		t.Errorf("lognormal mean = %.2f, want ≈50", mean)
	}

}

func TestRNGBoolAndUniform(t *testing.T) {
	g := NewRNG(3)
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %.3f", p)
	}
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGChoice(t *testing.T) {
	g := NewRNG(9)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Choice(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Choice[%d] rate = %.3f, want %.3f", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Choice with zero weights should panic")
		}
	}()
	g.Choice([]float64{0, 0})
}
