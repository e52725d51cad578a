package triage

import (
	"testing"

	"tcpstall/internal/trace"
)

func benchRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = rec(i, trace.DirOut, trace.Segment{Seq: uint32(1 + i*100), Len: 100, Wnd: 65535})
	}
	return recs
}

// BenchmarkObserve measures the triage fast path in steady state: the
// ring is past its geometric growth, so every record is counter math
// plus one pointer-free slot copy. Run with -benchmem — the hot-path
// budget is 0 allocs/op (TestZeroAlloc enforces it).
func BenchmarkObserve(b *testing.B) {
	recs := benchRecords(1024)
	f := NewFlow(Config{RingCap: 256})
	for i := range recs {
		f.Observe(&recs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(&recs[i%len(recs)])
	}
}

// benchLifecycle runs one whole flow life — admit, grow the ring
// through its ladder to RingCap, release — per iteration. The
// fresh/arena pair isolates what ring recycling saves at connection
// rate.
func benchLifecycle(b *testing.B, arena *Arena) {
	recs := benchRecords(256)
	cfg := Config{RingCap: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFlowIn(cfg, arena)
		for j := range recs {
			f.Observe(&recs[j])
		}
		f.Release()
	}
}

func BenchmarkRingGrowthFresh(b *testing.B) { benchLifecycle(b, nil) }
func BenchmarkRingGrowthArena(b *testing.B) { benchLifecycle(b, NewArena()) }

// TestArenaRecycleAllocs: once the arena is warm, a whole flow
// lifecycle allocates only the Flow struct itself — every rung of the
// ring ladder comes back recycled.
func TestArenaRecycleAllocs(t *testing.T) {
	a := NewArena()
	recs := benchRecords(256)
	cfg := Config{RingCap: 256}
	lifecycle := func() {
		f := NewFlowIn(cfg, a)
		for j := range recs {
			f.Observe(&recs[j])
		}
		f.Release()
	}
	lifecycle() // seed the arena with the full ladder
	allocs := testing.AllocsPerRun(50, lifecycle)
	if allocs > 2 {
		t.Fatalf("warm-arena flow lifecycle allocates %v, want <= 2 (the Flow struct)", allocs)
	}
}
