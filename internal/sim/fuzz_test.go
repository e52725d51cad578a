package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"
)

// queue is what FuzzEventQueue drives: the simulator with a few
// timers, or the reference model of it.
type queue interface {
	now() Time
	nextAt() (Time, bool)
	schedule(d Duration, fn func())
	scheduleAt(t Time, fn func())
	step() bool
	runUntil(t Time)
	newTimer(fn func()) int
	reset(timer int, d Duration)
	stop(timer int)
	armed(timer int) bool
}

// simQueue is the real simulator behind the queue interface.
type simQueue struct {
	s      *Simulator
	timers []*Timer
}

func (q *simQueue) now() Time                      { return q.s.Now() }
func (q *simQueue) nextAt() (Time, bool)           { return q.s.NextAt() }
func (q *simQueue) schedule(d Duration, fn func()) { q.s.Schedule(d, fn) }
func (q *simQueue) scheduleAt(t Time, fn func())   { q.s.ScheduleAt(t, fn) }
func (q *simQueue) step() bool                     { return q.s.Step() }
func (q *simQueue) runUntil(t Time)                { q.s.RunUntil(t) }
func (q *simQueue) reset(i int, d Duration)        { q.timers[i].Reset(d) }
func (q *simQueue) stop(i int)                     { q.timers[i].Stop() }
func (q *simQueue) armed(i int) bool               { return q.timers[i].Armed() }

func (q *simQueue) newTimer(fn func()) int {
	q.timers = append(q.timers, NewTimer(q.s, fn))
	return len(q.timers) - 1
}

// refQueue is the naive model: a slice kept sorted by (instant,
// sequence), where stopping or re-arming a timer only marks its old
// event cancelled and the event is skipped when it comes up.
type refQueue struct {
	clock  Time
	seq    uint64
	events []*refEvent
	timers []*refTimer
}

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

type refTimer struct {
	fn func()
	ev *refEvent // nil when not armed
}

func (q *refQueue) now() Time { return q.clock }

func (q *refQueue) skipCancelled() {
	for len(q.events) > 0 && q.events[0].cancelled {
		q.events = q.events[1:]
	}
}

func (q *refQueue) nextAt() (Time, bool) {
	q.skipCancelled()
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].at, true
}

func (q *refQueue) schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	q.scheduleAt(q.clock.Add(d), fn)
}

func (q *refQueue) scheduleAt(t Time, fn func()) { q.insert(t, fn) }

func (q *refQueue) insert(t Time, fn func()) *refEvent {
	if t < q.clock {
		t = q.clock
	}
	ev := &refEvent{at: t, seq: q.seq, fn: fn}
	q.seq++
	i := sort.Search(len(q.events), func(i int) bool {
		e := q.events[i]
		return e.at > ev.at || e.at == ev.at && e.seq > ev.seq
	})
	q.events = slices.Insert(q.events, i, ev)
	return ev
}

func (q *refQueue) step() bool {
	q.skipCancelled()
	if len(q.events) == 0 {
		return false
	}
	ev := q.events[0]
	q.events = q.events[1:]
	q.clock = ev.at
	ev.fn()
	return true
}

func (q *refQueue) runUntil(t Time) {
	for {
		at, ok := q.nextAt()
		if !ok || at > t {
			break
		}
		q.step()
	}
	if q.clock < t {
		q.clock = t
	}
}

func (q *refQueue) newTimer(fn func()) int {
	q.timers = append(q.timers, &refTimer{fn: fn})
	return len(q.timers) - 1
}

func (q *refQueue) reset(i int, d Duration) {
	q.stop(i)
	if d < 0 {
		d = 0
	}
	tm := q.timers[i]
	tm.ev = q.insert(q.clock.Add(d), func() {
		tm.ev = nil
		tm.fn()
	})
}

func (q *refQueue) stop(i int) {
	if tm := q.timers[i]; tm.ev != nil {
		tm.ev.cancelled = true
		tm.ev = nil
	}
}

func (q *refQueue) armed(i int) bool { return q.timers[i].ev != nil }

const fuzzTimers = 3

// play runs the operations data encodes against q and returns what it
// saw: every callback with its instant, and the clock, the next
// instant and the timers' states after every operation. Each
// operation is an opcode byte and an argument byte.
func play(q queue, data []byte) []string {
	var log []string
	ms := func(b byte) Duration { return Duration(b%8) * time.Millisecond }
	rearms := make([]int, fuzzTimers)
	for k := 0; k < fuzzTimers; k++ {
		q.newTimer(func() {
			log = append(log, fmt.Sprintf("timer %d at %v", k, q.now()))
			// Timer 0 re-arms itself from its own callback, as the
			// RTO timer does, a bounded number of times.
			if k == 0 && rearms[k] < 2 {
				rearms[k]++
				q.reset(k, time.Millisecond)
			}
		})
	}
	events := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%7, data[i+1]
		k := int(arg) % fuzzTimers
		switch op {
		case 0, 1:
			id := events
			events++
			fn := func() { log = append(log, fmt.Sprintf("event %d at %v", id, q.now())) }
			if op == 0 {
				q.schedule(ms(arg)-time.Millisecond, fn)
			} else {
				q.scheduleAt(Time(ms(arg)), fn)
			}
		case 2:
			q.reset(k, ms(arg/fuzzTimers)-time.Millisecond)
		case 3:
			q.stop(k)
		case 4:
			q.step()
		case 5:
			q.runUntil(q.now().Add(ms(arg)))
		case 6:
			// An event that re-arms a timer when it fires.
			id := events
			events++
			q.schedule(ms(arg/fuzzTimers), func() {
				log = append(log, fmt.Sprintf("event %d at %v resets timer %d", id, q.now(), k))
				q.reset(k, ms(arg/32))
			})
		}
		at, ok := q.nextAt()
		state := fmt.Sprintf("op %d: now %v, next %v %v, armed", i/2, q.now(), at, ok)
		for t := 0; t < fuzzTimers; t++ {
			state += fmt.Sprintf(" %v", q.armed(t))
		}
		log = append(log, state)
	}
	for q.step() {
	}
	return append(log, fmt.Sprintf("drained at %v", q.now()))
}

// FuzzEventQueue checks the simulator's queue, with timers that re-key
// their own events in place, against the naive model: any sequence of
// Schedule, ScheduleAt, Timer.Reset and Stop, Step and RunUntil must
// fire the same callbacks at the same instants in the same order.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 2, 3, 4, 0, 5, 7})
	f.Add([]byte{2, 9, 2, 9, 0, 2, 2, 9, 3, 9, 5, 7, 4, 0})
	f.Add([]byte{6, 0, 6, 35, 2, 1, 1, 0, 5, 2, 3, 1, 5, 7})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 1, 2, 2, 3, 1, 4, 0, 4, 0, 2, 1})
	f.Add([]byte("A000A0")) // a re-armed timer must queue behind an event scheduled since
	f.Fuzz(func(t *testing.T, data []byte) {
		got := play(&simQueue{s: New()}, data)
		want := play(&refQueue{}, data)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("line %d: queue %q, model %q", i, got[i], want[i])
				}
			}
			t.Fatalf("queue saw %d lines, model %d", len(got), len(want))
		}
	})
}
