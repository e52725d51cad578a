package main

import (
	"runtime"
	"time"
)

// pacer is the source's schedule. Record i is due at i × perRecord
// nanoseconds after the rep's start; the source never hands a record
// before it is due, and when it has fallen behind it hands every
// record that is already due in one batch (capped at maxBatch). A
// zero perRecord is the closed loop: everything is always due, so
// batches are cut by the cap alone.
//
// The pacer only counts; the source owns the records. All times are
// nanoseconds since the rep's start.
type pacer struct {
	perRecord float64
	maxBatch  int
	next      int // index of the record about to arrive
	pending   int // records admitted since the last hand-over
}

func newPacer(recordsPerSec float64, maxBatch int) *pacer {
	p := &pacer{maxBatch: maxBatch}
	if recordsPerSec > 0 {
		p.perRecord = 1e9 / recordsPerSec
	}
	return p
}

// open reports whether the loop is open, i.e. paced by a schedule
// rather than by the monitor's back-pressure.
func (p *pacer) open() bool { return p.perRecord > 0 }

// due is record i's scheduled hand-over time.
func (p *pacer) due(i int) int64 { return int64(float64(i) * p.perRecord) }

// late is how far past its due time record i was handed over.
func (p *pacer) late(i int, handedAt int64) int64 {
	return max(handedAt-p.due(i), 0)
}

// arrive is called with the next record in hand at time now. When the
// record is not yet due it returns the time to wait for, and
// handFirst tells the source to hand over what is pending before it
// waits: those records are all due already.
func (p *pacer) arrive(now int64) (handFirst bool, waitUntil int64) {
	if d := p.due(p.next); now < d {
		return p.pending > 0, d
	}
	return false, 0
}

// admit counts the record in (now is the time after any wait) and
// reports whether to hand the batch over: it is full, or the record
// after this one is not due yet, so holding this one back would only
// delay it.
func (p *pacer) admit(now int64) (handNow bool) {
	p.next++
	p.pending++
	return p.pending >= p.maxBatch || (p.open() && now < p.due(p.next))
}

// handed resets the batch and returns how many records it held.
func (p *pacer) handed() int {
	n := p.pending
	p.pending = 0
	return n
}

// waitUntil blocks the source until the rep clock reads at least
// until, and returns the reading. Long waits sleep; the last stretch
// yields in a loop, because the gaps at the paced rate (a few
// microseconds) are far below what a timer can resolve.
func waitUntil(start time.Time, until int64) int64 {
	const spinBelow = int64(200 * time.Microsecond)
	for {
		now := int64(time.Since(start))
		if now >= until {
			return now
		}
		if left := until - now; left > spinBelow {
			time.Sleep(time.Duration(left - spinBelow))
		} else {
			runtime.Gosched()
		}
	}
}
