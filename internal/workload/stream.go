package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// StreamOptions tune a streamed generation run.
type StreamOptions struct {
	// Flows is the number of connections to run (default
	// Service.DefaultFlows).
	Flows int
	// Concurrency bounds the simultaneously-running connections
	// (default 16). Each runs on its own goroutine and simulator.
	Concurrency int
}

// Stream runs the service model, emitting every packet record as its
// connection produces it — the same flows, bit-for-bit, that
// Generate(svc, seed, …) would collect, but delivered as a stream of
// trace.RecordEvents instead of accumulated flows. Connections run
// unpaced, as fast as their simulators step.
//
// emit is called from up to opt.Concurrency goroutines, one per
// connection, so it must be safe for concurrent use; events within
// one flow always arrive in order from a single goroutine. Stream
// returns when every connection has finished or ctx is cancelled, and
// reports how many records were emitted.
func Stream(ctx context.Context, svc Service, seed int64, opt StreamOptions, emit func(trace.RecordEvent)) uint64 {
	n := opt.Flows
	if n <= 0 {
		n = svc.DefaultFlows
	}
	conc := opt.Concurrency
	if conc <= 0 {
		conc = 16
	}
	if conc > n {
		conc = n
	}
	// Sub-seeds are drawn sequentially up front, exactly as Generate
	// does, so flow i here is flow i there.
	root := sim.NewRNG(seed)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = root.Int63()
	}

	var emitted atomic.Uint64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				emitted.Add(streamOne(ctx, svc, seeds[i], i, emit))
			}
		}()
	}
	wg.Wait()
	return emitted.Load()
}

// eventSink forwards each packet straight off the simulated wire.
type eventSink struct {
	flowID  string
	service string
	mss     int
	emit    func(trace.RecordEvent)
	count   uint64
}

func (es *eventSink) Record(t sim.Time, dir trace.Dir, seg trace.Segment) {
	ev := trace.RecordEvent{
		FlowID:  es.flowID,
		Service: es.service,
		MSS:     es.mss,
		Rec:     trace.Record{T: t, Dir: dir, Seg: seg},
	}
	// The client's SYN carries its initial advertised window, the
	// fact the zero-window classifier anchors on.
	if dir == trace.DirIn && seg.Flags.Has(packet.FlagSYN) {
		ev.InitRwnd = seg.Wnd
	}
	es.count++
	es.emit(ev)
}

// streamOne runs one connection until it completes, reaches
// Generate's default deadline or ctx is cancelled.
func streamOne(ctx context.Context, svc Service, seed int64, idx int, emit func(trace.RecordEvent)) uint64 {
	es := &eventSink{
		flowID:  fmt.Sprintf("%s-%05d", svc.Name, idx),
		service: svc.Name,
		mss:     svc.MSS,
		emit:    emit,
	}
	bc := buildConn(svc, seed, GenOptions{}, es)
	done := false
	bc.conn.OnDone = func(*tcpsim.ConnMetrics) { done = true }
	bc.conn.Start()
	for !done && ctx.Err() == nil {
		at, ok := bc.s.NextAt()
		if !ok || at > sim.Time(bc.deadline) {
			break
		}
		bc.s.Step()
	}
	return es.count
}
