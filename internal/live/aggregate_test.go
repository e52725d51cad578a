package live

import (
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/sim"
)

func stallEvent(service string, cause core.Cause, d time.Duration) core.LiveStall {
	return core.LiveStall{
		Service: service,
		Stall:   core.Stall{Cause: cause, Duration: sim.Duration(d)},
	}
}

func TestAggregatesMerge(t *testing.T) {
	a := newAggregates()
	b := newAggregates()

	a.stallSettled(stallEvent("s1", core.CauseZeroWindow, time.Second))
	b.stallSettled(stallEvent("s1", core.CauseZeroWindow, 2*time.Second))
	b.stallSettled(stallEvent("s2", core.CauseDataUnavailable, 50*time.Millisecond))
	a.flowsSeen, b.flowsSeen = 3, 4
	a.flowsEvicted[EvictDone] = 2
	b.flowsEvicted[EvictDone] = 1
	b.flowsEvicted[EvictLRU] = 5

	a.merge(b)
	if a.flowsSeen != 7 {
		t.Errorf("flowsSeen = %d, want 7", a.flowsSeen)
	}
	if a.flowsEvicted[EvictDone] != 3 || a.flowsEvicted[EvictLRU] != 5 {
		t.Errorf("flowsEvicted = %v", a.flowsEvicted)
	}
	k := CauseKey{Service: "s1", Cause: core.CauseZeroWindow}
	if a.stallCount[k] != 2 {
		t.Errorf("merged count = %d, want 2", a.stallCount[k])
	}
	if got := a.stallTime[k]; got != 3*time.Second {
		t.Errorf("merged stall time = %v, want 3s", got)
	}
	if a.durationsMS.N() != 3 {
		t.Errorf("merged histogram N = %d, want 3", a.durationsMS.N())
	}
}

// A settled stall folds into the cause cells and, for a timeout
// retransmission, into the Table-5 cells too.
func TestRetransBreakdownAtSettlement(t *testing.T) {
	ag := newAggregates()
	for _, st := range []core.Stall{
		{Cause: core.CauseTimeoutRetrans, RetransCause: core.RetransTail, Duration: sim.Duration(time.Second)},
		{Cause: core.CauseTimeoutRetrans, RetransCause: core.RetransDouble, Duration: sim.Duration(2 * time.Second)},
		{Cause: core.CauseClientIdle, Duration: sim.Duration(5 * time.Second)}, // not a retrans stall
	} {
		ag.stallSettled(core.LiveStall{Service: "s", Stall: st})
	}
	if ag.retransCount[core.RetransTail] != 1 || ag.retransCount[core.RetransDouble] != 1 {
		t.Errorf("retransCount = %v", ag.retransCount)
	}
	if len(ag.retransCount) != 2 {
		t.Errorf("non-retrans stall leaked into breakdown: %v", ag.retransCount)
	}
	if ag.retransTime[core.RetransDouble] != 2*time.Second {
		t.Errorf("retransTime = %v", ag.retransTime)
	}
	if n := ag.stallCount[CauseKey{Service: "s", Cause: core.CauseTimeoutRetrans}]; n != 2 {
		t.Errorf("retransmission cause cell = %d, want 2", n)
	}
}
