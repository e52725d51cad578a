// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (network paths, TCP endpoints, application
// models) share a single Simulator, which owns a virtual clock and a
// priority queue of pending events. Events scheduled for the same
// instant fire in the order they were scheduled, which keeps runs
// bit-for-bit reproducible for a fixed seed.
package sim

import (
	"container/heap"
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
	at     Time
	seq    uint64 // tiebreaker: FIFO among same-instant events
	fn     func()
	index  int // heap index, -1 once popped or cancelled
	cancel bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is not usable; call New.
type Simulator struct {
	now    Time
	queue  eventQueue
	nextID uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ ev *event }

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (s *Simulator) Schedule(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at instant t. Instants in the past are clamped to
// the present.
func (s *Simulator) ScheduleAt(t Time, fn func()) Handle {
	if t < s.now {
		t = s.now
	}
	ev := &event{at: t, seq: s.nextID, fn: fn}
	s.nextID++
	heap.Push(&s.queue, ev)
	return Handle{ev: ev}
}

// Cancel prevents a scheduled event from firing. Cancelling an event
// that already fired (or was already cancelled) is a no-op.
func (s *Simulator) Cancel(h Handle) {
	if h.ev == nil || h.ev.index < 0 {
		return
	}
	h.ev.cancel = true
}

// Step executes the single next event, advancing the clock to its
// instant. It reports false when the queue is empty.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*event)
		if ev.cancel {
			continue
		}
		s.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with instants ≤ deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	for {
		ev := s.peek()
		if ev == nil || ev.at > deadline {
			break
		}
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
	ev := s.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

func (s *Simulator) peek() *event {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if ev.cancel {
			heap.Pop(&s.queue)
			continue
		}
		return ev
	}
	return nil
}
