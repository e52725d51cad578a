package sim

// Timer is a restartable one-shot timer bound to a simulator, in the
// style of the kernel timers the TCP model needs (RTO timer, delayed
// ACK timer, probe timers). Resetting an armed timer reschedules it;
// stopping it cancels the pending event.
type Timer struct {
	sim    *Simulator
	fn     func()
	handle Handle
	armed  bool
}

// NewTimer returns a stopped timer that runs fn when it fires.
func NewTimer(s *Simulator, fn func()) *Timer {
	return &Timer{sim: s, fn: fn}
}

// Reset (re)arms the timer to fire after d.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.armed = true
	t.handle = t.sim.Schedule(d, func() {
		t.armed = false
		t.fn()
	})
}

// Stop cancels the timer if armed.
func (t *Timer) Stop() {
	if t.armed {
		t.sim.Cancel(t.handle)
		t.armed = false
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.armed }
