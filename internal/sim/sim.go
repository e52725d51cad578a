// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (network paths, TCP endpoints, application
// models) share a single Simulator, which owns a virtual clock and a
// priority queue of pending events. Events scheduled for the same
// instant fire in the order they were scheduled, which keeps runs
// bit-for-bit reproducible for a fixed seed.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant on the simulation's virtual clock, measured as an
// offset from the start of the run.
type Time time.Duration

// Duration is re-exported for call-site readability.
type Duration = time.Duration

// String formats the instant with millisecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(time.Millisecond))
}

// Seconds reports the instant in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add offsets the instant by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// An event is a function scheduled to run at a virtual instant.
type event struct {
	at    Time
	seq   uint64 // tiebreaker: FIFO among same-instant events
	fn    func()
	index int  // position in the queue, -1 when not queued
	timer bool // owned by a Timer, never recycled
}

// before is the queue order: earlier instant first, then earlier
// scheduling. seq is unique, so the order is total and the firing
// sequence does not depend on the heap's shape.
func (e *event) before(f *event) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// eventQueue is a binary min-heap of events in before order. Each
// event records its own position, so a timer can re-key or remove its
// event in place.
type eventQueue []*event

func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at i toward the leaves and reports whether it
// moved.
func (q eventQueue) down(i int) bool {
	ev, i0, n := q[i], i, len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}

// fix restores the heap order after the key of the event at i changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *eventQueue) push(ev *event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// remove takes the event at i out of the queue and returns it.
func (q *eventQueue) remove(i int) *event {
	old := *q
	n := len(old) - 1
	ev := old[i]
	old[i] = old[n]
	old[i].index = i
	old[n] = nil
	*q = old[:n]
	if i < n {
		q.fix(i)
	}
	ev.index = -1
	return ev
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is not usable; call New.
type Simulator struct {
	now    Time
	queue  eventQueue
	nextID uint64
	free   []*event // fired Schedule events, for reuse
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (s *Simulator) Schedule(d Duration, fn func()) {
	s.ScheduleAt(s.after(d), fn)
}

// after is the instant d from now, never before now.
func (s *Simulator) after(d Duration) Time {
	return max(s.now.Add(max(d, 0)), s.now)
}

// ScheduleAt runs fn at instant t. Instants in the past are clamped to
// the present.
func (s *Simulator) ScheduleAt(t Time, fn func()) {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn = max(t, s.now), s.seq(), fn
	s.queue.push(ev)
}

// seq hands out the next scheduling sequence number.
func (s *Simulator) seq() uint64 {
	n := s.nextID
	s.nextID++
	return n
}

// Step executes the single next event, advancing the clock to its
// instant. It reports false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue.remove(0)
	s.now = ev.at
	fn := ev.fn
	if !ev.timer {
		ev.fn = nil
		s.free = append(s.free, ev)
	}
	fn()
	return true
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with instants ≤ deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Simulator) RunFor(d Duration) {
	s.RunUntil(s.now.Add(d))
}

// NextAt reports the instant of the earliest pending event, if any.
// Live drivers use it to pace virtual time against a wall clock: peek
// the next instant, sleep the scaled difference, then Step.
func (s *Simulator) NextAt() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}
