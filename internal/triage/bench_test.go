package triage

import (
	"runtime"
	"testing"
	"unsafe"

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
// ring is at capacity, so every record is counter math plus one delta
// encoding into the tail chunk, and now and then a chunk freed at the
// front and refilled at the tail. Run with -benchmem — the hot-path
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

// BenchmarkReplayUnfed measures the decode side: the replay a
// promotion runs over a full 1024-record ring, from the ring start.
// Each iteration rewinds fed to the ring start and replays every
// retained record.
func BenchmarkReplayUnfed(b *testing.B) {
	recs := benchRecords(2048)
	f := NewFlow(Config{RingCap: 1024})
	for i := range recs {
		f.Observe(&recs[i])
	}
	f.Attach()
	n := 0
	count := func(*trace.Record) { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.fed = f.ringStart
		f.seek()
		f.ReplayUnfed(count)
	}
	b.StopTimer()
	if n != 1024*b.N {
		b.Fatalf("replayed %d records, want %d", n, 1024*b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/record")
}

// benchLifecycle runs one whole flow life — admit, grow the ring a
// chunk at a time to RingCap, release — per iteration. The
// fresh/arena pair isolates what chunk recycling saves at connection
// rate.
func benchLifecycle(b *testing.B, arena *Arena) {
	recs := benchRecords(256)
	cfg := Config{RingCap: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFlowIn(cfg, trace.DefaultTau, arena)
		for j := range recs {
			f.Observe(&recs[j])
		}
		f.Release()
	}
}

func BenchmarkRingGrowthFresh(b *testing.B) { benchLifecycle(b, nil) }
func BenchmarkRingGrowthArena(b *testing.B) { benchLifecycle(b, NewArena()) }

// TestArenaRecycleAllocs: once the arena is warm, a whole flow
// lifecycle allocates only the Flow struct — every chunk of the ring
// comes back recycled.
func TestArenaRecycleAllocs(t *testing.T) {
	a := NewArena()
	recs := benchRecords(256)
	cfg := Config{RingCap: 256}
	lifecycle := func() {
		f := NewFlowIn(cfg, trace.DefaultTau, a)
		for j := range recs {
			f.Observe(&recs[j])
		}
		f.Release()
	}
	lifecycle() // seed the arena with a full ring's chunks
	allocs := testing.AllocsPerRun(50, lifecycle)
	if allocs > 1 {
		t.Fatalf("warm-arena flow lifecycle allocates %v, want <= 1 (the Flow struct)", allocs)
	}
}

// TestArenaRetentionBounded: a burst of full-ring flows closing
// together leaves the arena holding at most arenaMaxHeld chunks, 768
// KB; the rest of their rings goes to the collector.
func TestArenaRetentionBounded(t *testing.T) {
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cfg := Config{}.WithDefaults()
	recs := benchRecords(cfg.RingCap)
	before := liveHeap()
	a := NewArena()
	flows := make([]*Flow, 300)
	for i := range flows {
		flows[i] = NewFlowIn(cfg, trace.DefaultTau, a)
		for j := range recs {
			flows[i].Observe(&recs[j])
		}
	}
	for _, f := range flows {
		f.Release()
	}
	flows = nil
	held := liveHeap() - before
	runtime.KeepAlive(a)
	limit := int64(arenaMaxHeld*unsafe.Sizeof(chunk{})) + 64<<10
	if held > limit {
		t.Fatalf("arena retains %d KB after 300 full flows closed, want <= %d KB", held>>10, limit>>10)
	}
}
