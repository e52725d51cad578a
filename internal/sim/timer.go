package sim

// Timer is a restartable one-shot timer bound to a simulator, in the
// style of the kernel timers the TCP model needs (RTO timer, delayed
// ACK timer, probe timers). A timer owns one queue event: Reset
// re-keys it in place and Stop takes it out of the queue, so a timer
// re-armed on every ACK leaves nothing behind.
type Timer struct {
	sim *Simulator
	ev  event
}

// NewTimer returns a stopped timer that runs fn when it fires.
func NewTimer(s *Simulator, fn func()) *Timer {
	return &Timer{sim: s, ev: event{fn: fn, index: -1, timer: true}}
}

// Reset (re)arms the timer to fire after d, replacing any earlier
// arming. The event takes a fresh sequence number, so it orders among
// same-instant events exactly as a newly scheduled one would.
func (t *Timer) Reset(d Duration) {
	s := t.sim
	t.ev.at = s.after(d)
	t.ev.seq = s.seq()
	if t.ev.index >= 0 {
		s.queue.fix(t.ev.index)
	} else {
		s.queue.push(&t.ev)
	}
}

// Stop disarms the timer if armed.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		t.sim.queue.remove(t.ev.index)
	}
}

// Armed reports whether the timer is pending. A firing timer is
// already disarmed when its function runs.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }
