package live

import (
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
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
	m.DrainStallDigest() // arm the digest
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

// TestStallDigestDefaultSize pins the digest bound: a drained monitor
// digests up to 256 events per push (fleet.MaxDigestEvents), so fleet
// members get the event stream without any flag.
func TestStallDigestDefaultSize(t *testing.T) {
	m := New(Config{})
	m.DrainStallDigest()
	now := time.Unix(1000, 0)
	for i := 0; i < 300; i++ {
		m.digest.push(now, digestStall("f"))
	}
	if evs, dropped := m.DrainStallDigest(); len(evs) != 256 || dropped != 44 {
		t.Errorf("300 stalls: drained %d, dropped %d; want 256 and 44", len(evs), dropped)
	}
}

// TestStallDigestInertUntilDrained: a monitor nothing drains keeps no
// DigestedStall however many stalls close; the first drain arms it,
// and stalls closed from then on are digested.
func TestStallDigestInertUntilDrained(t *testing.T) {
	var fs []*trace.Flow
	for _, fr := range workload.Generate(workload.Services()[0], 11, workload.GenOptions{Flows: 8}) {
		fs = append(fs, fr.Flow)
	}
	m := New(Config{Shards: 1})
	for _, f := range fs[:4] {
		m.shards[0].processBatch(events(f))
	}
	if len(m.RecentStalls()) == 0 {
		t.Fatal("the sick flows closed no stall")
	}
	if len(m.digest.buf) != 0 || m.digest.dropped != 0 {
		t.Fatalf("an undrained monitor digested %d stalls (%d dropped)", len(m.digest.buf), m.digest.dropped)
	}
	if evs, dropped := m.DrainStallDigest(); len(evs) != 0 || dropped != 0 {
		t.Fatalf("first drain = %d events, %d dropped; want none", len(evs), dropped)
	}
	before := len(m.RecentStalls())
	for _, f := range fs[4:] {
		m.shards[0].processBatch(events(f))
	}
	evs, _ := m.DrainStallDigest()
	if want := len(m.RecentStalls()) - before; want == 0 || len(evs) != want {
		t.Fatalf("armed digest holds %d stalls, want the %d closed since the first drain", len(evs), want)
	}
}
