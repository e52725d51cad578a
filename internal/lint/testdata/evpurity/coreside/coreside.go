// Package coreside seeds analyzer-side evpurity violations (loaded
// as tcpstall/internal/core/coreside).
package coreside

import (
	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
)

type analyzer struct {
	rec    *flight.Recorder
	nRecs  int
	cwnd   int
	hook   func(int)
	events chan int
}

// sanctioned patterns: flight calls, region-locals, flight-typed
// destinations, calls to pure same-package helpers.
func (a *analyzer) goodEmit(t sim.Time) {
	if a.rec != nil {
		id := int64(a.nRecs) // region-local: fine
		a.rec.Emit(a.nRecs, t, flight.KindAck, flight.NameAckAdvance, id, 0, 0)
	}
}

func (a *analyzer) goodTrail() *flight.Trail {
	var tr *flight.Trail
	if a.rec != nil {
		tr = &flight.Trail{} // flight-typed destination: fine
	}
	tr.Note("context", flight.V("cwnd", a.cwnd))
	return tr
}

func (a *analyzer) goodEarlyReturn(t sim.Time) {
	if a.rec == nil {
		return
	}
	a.rec.Emit(a.nRecs, t, flight.KindCwnd, flight.NameLossReset, int64(a.readCwnd()), 0, 0)
}

func (a *analyzer) readCwnd() int { return a.cwnd }

// violations: the nil-recorder run would diverge.
func (a *analyzer) badCounter() {
	if a.rec != nil {
		a.nRecs++ // want `write to a\.nRecs inside a recorder-attached region`
	}
}

func (a *analyzer) badAssign(t sim.Time) {
	if a.rec == nil {
		return
	}
	a.cwnd = 0 // want `write to a\.cwnd inside a recorder-attached region`
	a.rec.Emit(a.nRecs, t, flight.KindCwnd, flight.NameLossReset, 0, 0, 0)
}

func (a *analyzer) bumpCwnd() { a.cwnd++ }

func (a *analyzer) badWriterCall() {
	if a.rec != nil {
		a.bumpCwnd() // want `bumpCwnd writes analyzer state`
	}
}

func (a *analyzer) badDynamic() {
	if a.rec != nil {
		a.hook(1) // want `call through stored function value hook`
	}
}

func (a *analyzer) badSend() {
	if a.rec.Enabled() {
		a.events <- 1 // want `channel send inside a recorder-attached region`
	}
}
