package live

import (
	"testing"
	"time"

	"tcpstall/internal/core"
)

func digestStall(flow string) core.LiveStall {
	return core.LiveStall{FlowID: flow, Service: "svc", Stall: core.Stall{Cause: core.CauseTimeoutRetrans}}
}

// TestStallDigestFirstK pins the sampling rule: the digest keeps the
// FIRST cap events of a drain interval and counts the overflow — a
// deterministic bound, unlike the newest-wins stall ring.
func TestStallDigestFirstK(t *testing.T) {
	m := New(Config{})
	m.digest.cap = 3
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		m.digest.push(now.Add(time.Duration(i)*time.Second), digestStall(string(rune('a'+i))))
	}
	evs, dropped := m.DrainStallDigest()
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	// First-K, oldest first: the survivors are the first three pushes.
	for i, ev := range evs {
		if want := string(rune('a' + i)); ev.Stall.FlowID != want {
			t.Errorf("event %d flow = %q, want %q", i, ev.Stall.FlowID, want)
		}
		if want := now.Add(time.Duration(i) * time.Second); !ev.At.Equal(want) {
			t.Errorf("event %d at = %v, want %v", i, ev.At, want)
		}
	}
	// Drain resets both the buffer and the overflow count.
	evs, dropped = m.DrainStallDigest()
	if len(evs) != 0 || dropped != 0 {
		t.Errorf("second drain = %d events, %d dropped; want empty", len(evs), dropped)
	}
	// And the next interval samples fresh.
	m.digest.push(now, digestStall("z"))
	evs, dropped = m.DrainStallDigest()
	if len(evs) != 1 || dropped != 0 || evs[0].Stall.FlowID != "z" {
		t.Errorf("post-reset drain = %+v dropped=%d, want one event z", evs, dropped)
	}
}

// TestStallDigestDefaultSize pins the digest bound: a monitor digests
// up to 256 events per push (fleet.MaxDigestEvents), so fleet members
// get the event stream without any flag.
func TestStallDigestDefaultSize(t *testing.T) {
	m := New(Config{})
	if m.digest.cap != 256 {
		t.Errorf("default digest cap = %d, want 256", m.digest.cap)
	}
}
