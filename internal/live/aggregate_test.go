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

func TestRollWindowAges(t *testing.T) {
	ag := newAggregates(10*time.Second, 5) // 2s buckets
	base := time.Unix(10_000, 0)
	k := CauseKey{Service: "svc", Cause: core.CausePacketDelay}

	ag.stallClosed(base, stallEvent("svc", core.CausePacketDelay, 100*time.Millisecond))
	ag.stallClosed(base.Add(4*time.Second), stallEvent("svc", core.CausePacketDelay, 200*time.Millisecond))

	// Both stalls inside the window.
	win := ag.window.snapshot(base.Add(5 * time.Second))
	if win.StallCount[k] != 2 {
		t.Fatalf("window count = %d, want 2", win.StallCount[k])
	}

	// 11s after the first stall: only the second remains.
	win = ag.window.snapshot(base.Add(11 * time.Second))
	if win.StallCount[k] != 1 {
		t.Fatalf("aged window count = %d, want 1", win.StallCount[k])
	}
	if got := win.StallTime[k]; got != 200*time.Millisecond {
		t.Errorf("aged window stall time = %v, want 200ms", got)
	}

	// Far future: empty window, but cumulative totals persist.
	win = ag.window.snapshot(base.Add(time.Hour))
	if len(win.StallCount) != 0 {
		t.Errorf("stale window still counts %v", win.StallCount)
	}
	if ag.stallCount[k] != 2 {
		t.Errorf("cumulative count = %d, want 2", ag.stallCount[k])
	}
	if ag.durationsMS.N() != 2 {
		t.Errorf("duration histogram N = %d, want 2", ag.durationsMS.N())
	}
}

func TestRollWindowBucketReuse(t *testing.T) {
	ag := newAggregates(4*time.Second, 4) // 1s buckets
	base := time.Unix(20_000, 0)
	k := CauseKey{Service: "s", Cause: core.CauseClientIdle}

	ag.stallClosed(base, stallEvent("s", core.CauseClientIdle, time.Second))
	// Same ring slot, 4 steps later: the old epoch must be wiped, not
	// accumulated into.
	ag.stallClosed(base.Add(4*time.Second), stallEvent("s", core.CauseClientIdle, time.Second))

	win := ag.window.snapshot(base.Add(4 * time.Second))
	if win.StallCount[k] != 1 {
		t.Fatalf("reused bucket count = %d, want 1 (stale epoch leaked)", win.StallCount[k])
	}
}

func TestAggregatesMerge(t *testing.T) {
	a := newAggregates(time.Minute, 6)
	b := newAggregates(time.Minute, 6)
	now := time.Unix(30_000, 0)

	a.stallClosed(now, stallEvent("s1", core.CauseZeroWindow, time.Second))
	b.stallClosed(now, stallEvent("s1", core.CauseZeroWindow, 2*time.Second))
	b.stallClosed(now, stallEvent("s2", core.CauseDataUnavailable, 50*time.Millisecond))
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

func TestRetransBreakdownAtEviction(t *testing.T) {
	ag := newAggregates(time.Minute, 6)
	a := &core.FlowAnalysis{Stalls: []core.Stall{
		{Cause: core.CauseTimeoutRetrans, RetransCause: core.RetransTail, Duration: sim.Duration(time.Second)},
		{Cause: core.CauseTimeoutRetrans, RetransCause: core.RetransDouble, Duration: sim.Duration(2 * time.Second)},
		{Cause: core.CauseClientIdle, Duration: sim.Duration(5 * time.Second)}, // not a retrans stall
	}}
	ag.flowEvicted(EvictDone, a, true)

	if ag.retransCount[core.RetransTail] != 1 || ag.retransCount[core.RetransDouble] != 1 {
		t.Errorf("retransCount = %v", ag.retransCount)
	}
	if len(ag.retransCount) != 2 {
		t.Errorf("non-retrans stall leaked into breakdown: %v", ag.retransCount)
	}
	if ag.flowsTruncated != 1 {
		t.Errorf("flowsTruncated = %d, want 1", ag.flowsTruncated)
	}
}
