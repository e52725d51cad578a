package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/fleet"
	"tcpstall/internal/live"
	"tcpstall/internal/trace"
)

// pushInterval is how often the capture workloads' member pushes while
// it replays — tapod's push loop, sped up from its 5 s default so that
// a rep of a second or two still yields a few dozen timed pushes.
const pushInterval = 50 * time.Millisecond

// chain is one rep's instance of the system under test: a head served
// on loopback HTTP and the members registered at it, each wrapping a
// started monitor. Every rep builds a fresh one.
type chain struct {
	head     *fleet.Head
	stopHead func()
	client   *http.Client
	mons     []*live.Monitor
	mbs      []*fleet.Member
	// start is the rep clock's zero; all rep times are nanoseconds
	// since it.
	start time.Time

	mu sync.Mutex
	// verdicts collects every stall the moment OnStall reports it. guarded by mu
	verdicts []verdict
}

// verdict is one OnStall call; the closing record is resolved after
// the rep, off the shard goroutine.
type verdict struct {
	at     int64
	member int
	flow   string
	endRec int
}

func (c *chain) since() int64 { return int64(time.Since(c.start)) }

func (c *chain) onStall(member int, ls core.LiveStall) {
	at := c.since()
	c.mu.Lock()
	c.verdicts = append(c.verdicts, verdict{at: at, member: member, flow: ls.FlowID, endRec: ls.Stall.EndRecIdx})
	c.mu.Unlock()
}

func (c *chain) takeVerdicts() []verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verdicts
}

// serveHead exposes the head on a loopback listener, so pushes cross
// the same HTTP stack tapod and tapoctl use. stop returns once the
// server goroutine has exited.
func serveHead(h *fleet.Head) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: fleet.NewHandler(h)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed after stop; a failure before
		// that surfaces as every push failing, which the rep reports.
		_ = srv.Serve(ln)
	}()
	stop = func() {
		srv.Close()
		h.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newChain builds a head and n registered members named after id.
func newChain(w spec, n int, id string) (*chain, error) {
	c := &chain{head: fleet.NewHead(fleet.HeadConfig{})}
	url, stop, err := serveHead(c.head)
	if err != nil {
		return nil, err
	}
	c.stopHead = stop
	c.client = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	for i := 0; i < n; i++ {
		cfg := w.config()
		cfg.OnStall = func(ls core.LiveStall) { c.onStall(i, ls) }
		mon := live.New(cfg)
		mon.Start()
		c.mons = append(c.mons, mon)
		mb, err := fleet.NewMember(fleet.MemberConfig{
			ID:      fmt.Sprintf("%s-m%02d", id, i),
			Head:    url,
			Monitor: mon,
			Client:  c.client,
		})
		if err == nil {
			err = mb.Register(context.Background())
		}
		if err != nil {
			c.discard()
			return nil, err
		}
		c.mbs = append(c.mbs, mb)
	}
	return c, nil
}

// discard tears the chain down after the rep (or a failed build).
// Closing a monitor twice is harmless.
func (c *chain) discard() {
	for _, mon := range c.mons {
		mon.Close()
	}
	c.client.CloseIdleConnections()
	c.stopHead()
}

// pusher is tapod's push loop with every push timed: a goroutine
// beside the source that snapshots the member and pushes on a ticker.
type pusher struct {
	quit chan struct{}
	done chan struct{}
	ms   []float64
	at   []int64 // start of each push, for the trace
	errs int
}

func startPusher(c *chain, mb *fleet.Member) *pusher {
	p := &pusher{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pushInterval)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				t := c.since()
				if err := mb.Push(context.Background()); err != nil {
					p.errs++
					continue
				}
				p.at = append(p.at, t)
				p.ms = append(p.ms, float64(c.since()-t)/1e6)
			}
		}
	}()
	return p
}

// stop ends the loop after any push in flight and waits for the
// goroutine.
func (p *pusher) stop() {
	close(p.quit)
	<-p.done
}

// repOut is what one rep measured.
type repOut struct {
	wall      time.Duration // os.Open (or first hand-over) until head totals equal the members' finals
	cpu       time.Duration // process user+sys over the same interval
	inputDone time.Duration // when the source had handed over its last record
	verdictMS []float64
	pushMS    []float64
	totals    fleet.Totals
	headStats fleet.HeadStats
	bad       string // non-empty: the rep failed its correctness gate

	// Timed calls and counters for the per-layer table.
	liveCloseMS float64
	mbCloseMS   float64
	totalsUS    float64
	pushBytes   float64

	heapMB    float64       // warm-up rep only
	sourceCPU time.Duration // split rep only: CPU of the source's thread

	// Traced rep only.
	tr         *tracer
	mem0, mem1 runtime.MemStats
	gcCPU      float64
	liveSnapUS float64
	mbSnapUS   float64
}

// repMode selects what a rep does beside the measured work.
type repMode int

const (
	repMeasured repMode = iota
	repWarm             // untimed: also reads the heap at quiescence
	repTraced           // records spans and counters at the layer boundaries
	repSplit            // pins the source to its thread to split the CPU between source and the rest
)

// runner holds what every rep of a run shares.
type runner struct {
	w  spec
	in *input
	sz sizes
	// due[i] is when record i was due at the source: its scheduled
	// time on the paced workload, the moment its batch was handed over
	// otherwise.
	due []int64
}

// rep runs the chain once over the whole input. An error is a failure
// of the harness or the environment; a failed correctness gate is
// reported in repOut.bad.
func (r *runner) rep(id string, mode repMode) (*repOut, error) {
	out := &repOut{}
	runtime.GC()
	var ms runtime.MemStats
	if mode == repWarm {
		runtime.ReadMemStats(&ms)
	}
	heap0 := ms.HeapAlloc

	members := 1
	if r.w.fleet {
		members = r.sz.members
	}
	c, err := newChain(r.w, members, id)
	if err != nil {
		return nil, err
	}
	defer c.discard()

	switch mode {
	case repTraced:
		out.tr = newTracer(r.in, r.w.paced)
		runtime.ReadMemStats(&out.mem0)
		out.gcCPU = gcCPUSeconds()
	case repSplit:
		// The source goroutine keeps its thread for the rep, so the
		// thread's CPU is the source's and the rest of the process is
		// the shards, the head and the collector. Hand-offs to and from
		// a locked thread cost about a sixth in wall time, which is why
		// no other number comes from this rep.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	srcCPU0 := cpuTime(rusageThread)
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	c.start = time.Now()

	if r.w.fleet {
		err = r.roundRobin(c, out)
	} else {
		err = r.replay(c, out)
	}
	if err != nil {
		return nil, err
	}
	out.inputDone = time.Duration(c.since())

	switch mode {
	case repWarm:
		c.quiesce()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		out.heapMB = (float64(ms.HeapAlloc) - float64(heap0)) / (1 << 20)
	case repTraced:
		t := c.since()
		c.mons[0].Snapshot()
		t1 := c.since()
		c.mbs[0].Snapshot()
		out.liveSnapUS = float64(t1-t) / 1e3
		out.mbSnapUS = float64(c.since()-t1) / 1e3
	}

	// Drain: Monitor.Close settles every flow, Member.Close sends the
	// final push. The monitor is closed first and on its own only so
	// the two can be timed apart; Member.Close closes it again, which
	// is a no-op.
	for i, mb := range c.mbs {
		t := c.since()
		c.mons[i].Close()
		t1 := c.since()
		if err := mb.Close(context.Background()); err != nil {
			return nil, fmt.Errorf("member close: %w", err)
		}
		t2 := c.since()
		out.liveCloseMS += float64(t1-t) / 1e6
		out.mbCloseMS += float64(t2-t1) / 1e6
		if out.tr != nil {
			out.tr.span("live.close", t, t1)
			out.tr.span("fleet.member.close", t1, t2)
		}
	}
	// The rep is over when the head shows what the members reported:
	// its totals must be, byte for byte, the merge of their finals.
	finals := make([]fleet.Snapshot, len(c.mbs))
	for i, mb := range c.mbs {
		finals[i] = mb.Snapshot()
	}
	t := c.since()
	out.totals, err = c.head.Totals()
	out.totalsUS = float64(c.since()-t) / 1e3
	if err != nil {
		return nil, fmt.Errorf("head totals: %w", err)
	}
	want, err := fleet.Aggregate(finals...)
	if err != nil {
		return nil, fmt.Errorf("aggregating finals: %w", err)
	}
	settled := jsonEqual(want, out.totals)

	out.wall = time.Duration(c.since())
	out.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
	switch mode {
	case repTraced:
		runtime.ReadMemStats(&out.mem1)
		out.gcCPU = gcCPUSeconds() - out.gcCPU
	case repSplit:
		out.sourceCPU = cpuTime(rusageThread) - srcCPU0
	}

	out.headStats = c.head.Stats()
	for _, mb := range c.mbs {
		out.pushBytes += float64(mb.Stats().BytesPushed)
	}
	out.pushBytes /= float64(out.headStats.Pushes)
	r.resolveVerdicts(c.takeVerdicts(), out)
	out.bad = r.gate(out, finals, settled)
	return out, nil
}

// replay is the capture workloads' source: it opens the file as tapod
// -pcap does, streams it through trace.ImportPcapRecords and hands the
// records to the member in batches cut by the pacer, while the pusher
// pushes beside it.
func (r *runner) replay(c *chain, out *repOut) error {
	rate := 0.0
	if r.w.paced {
		rate = r.sz.pacedRate
	}
	s := &source{c: c, r: r, p: newPacer(rate, replayChunk), tr: out.tr}
	s.buf = make([]trace.RecordEvent, 0, replayChunk)
	push := startPusher(c, c.mbs[0])

	f, err := os.Open(r.in.path)
	if err != nil {
		push.stop()
		return err
	}
	defer f.Close()
	if s.tr != nil {
		s.tr.reader.f = f
		err = trace.ImportPcapRecords(s.tr.reader, trace.ImportConfig{}, s.onRecord)
	} else {
		err = trace.ImportPcapRecords(f, trace.ImportConfig{}, s.onRecord)
	}
	if s.p.pending > 0 {
		s.hand(c.since())
	}
	push.stop()
	if err != nil {
		return fmt.Errorf("replaying %s: %w", r.in.path, err)
	}
	out.pushMS = push.ms
	if push.errs > 0 {
		return fmt.Errorf("%d pushes failed", push.errs)
	}
	if s.tr != nil {
		for i, at := range push.at {
			s.tr.span("fleet.member.push", at, at+int64(push.ms[i]*1e6))
		}
	}
	return nil
}

// source is the replaying goroutine's state between two callbacks of
// the importer.
type source struct {
	c      *chain
	r      *runner
	p      *pacer
	buf    []trace.RecordEvent
	tr     *tracer
	waited int64 // traced: pacer wait since the last hand-over
}

// onRecord receives the importer's next record. The event is passed on
// as it came; the source never looks inside it.
func (s *source) onRecord(ev trace.RecordEvent) error {
	var now int64 // the closed loop reads the clock per batch, not per record
	if s.p.open() {
		now = s.pace()
	}
	s.buf = append(s.buf, ev)
	if s.p.admit(now) {
		s.hand(now)
	}
	return nil
}

// pace holds the record in hand back until it is due, handing over
// first what is already due, and returns the time.
func (s *source) pace() int64 {
	now := s.c.since()
	handFirst, until := s.p.arrive(now)
	if until == 0 {
		return now
	}
	if handFirst {
		s.hand(now)
		now = s.c.since()
	}
	reached := waitUntil(s.c.start, until)
	s.waited += reached - now
	return reached
}

// hand gives the pending batch to the member — the one intake call.
func (s *source) hand(now int64) {
	if !s.p.open() {
		now = s.c.since()
	}
	n := s.p.handed()
	lo := s.p.next - n
	for i := lo; i < lo+n; i++ {
		if s.p.open() {
			s.r.due[i] = s.p.due(i)
		} else {
			s.r.due[i] = now
		}
	}
	s.c.mbs[0].IngestBatch(s.buf)
	s.buf = s.buf[:0]
	if s.tr != nil {
		s.tr.batch(batchRec{lo: lo, hi: lo + n, handAt: now, end: s.c.since(), waitNS: s.waited})
	}
	s.waited = 0
}

// roundRobin is fleet_push's source: one client, one push in flight.
// It hands each member its next chunk of events and then times that
// member's push.
func (r *runner) roundRobin(c *chain, out *repOut) error {
	out.pushMS = make([]float64, 0, len(r.in.schedule))
	pos := 0
	for _, sl := range r.in.schedule {
		now := c.since()
		for i := 0; i < sl.hi-sl.lo; i++ {
			r.due[pos+i] = now
		}
		c.mbs[sl.member].IngestBatch(r.in.events[sl.member][sl.lo:sl.hi])
		t := c.since()
		if err := c.mbs[sl.member].Push(context.Background()); err != nil {
			return fmt.Errorf("push: %w", err)
		}
		end := c.since()
		out.pushMS = append(out.pushMS, float64(end-t)/1e6)
		if out.tr != nil {
			out.tr.batch(batchRec{lo: pos, hi: pos + sl.hi - sl.lo, handAt: now, end: t, pushEnd: end})
		}
		pos += sl.hi - sl.lo
	}
	return nil
}

// quiesce waits until the shards have worked off what is queued: the
// monitors' progress counters read the same on three polls in a row.
func (c *chain) quiesce() {
	var last uint64
	for stable := 0; stable < 3; {
		time.Sleep(2 * time.Millisecond)
		var cur uint64
		for _, mon := range c.mons {
			s := mon.Snapshot()
			cur += s.RecordsFed + s.TriageFastRecords + s.RecordsCapDrop
		}
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
}

// resolveVerdicts turns each OnStall into a latency: its wall time
// minus the due time of the record that closed the stall.
func (r *runner) resolveVerdicts(vs []verdict, out *repOut) {
	out.verdictMS = make([]float64, 0, len(vs))
	for _, v := range vs {
		positions := r.in.index[v.member][v.flow]
		if v.endRec < 0 || v.endRec >= len(positions) {
			continue // gate() reports the count mismatch this implies
		}
		pos := int(positions[v.endRec])
		out.verdictMS = append(out.verdictMS, float64(v.at-r.due[pos])/1e6)
		if out.tr != nil {
			out.tr.verdict(v.at, pos)
		}
	}
}

// gate is the correctness check every rep must pass.
func (r *runner) gate(out *repOut, finals []fleet.Snapshot, settled bool) string {
	var ingested, drops uint64
	for _, f := range finals {
		ingested += f.Ingested
		drops += f.RingDrops
	}
	got := map[string]uint64{}
	for _, sc := range out.totals.Stalls {
		got[sc.Cause] += sc.Count
	}
	var verdicts uint64
	for _, n := range r.in.stalls {
		verdicts += n
	}
	switch {
	case ingested != uint64(r.in.records):
		return fmt.Sprintf("ingested %d of %d records offered", ingested, r.in.records)
	case drops != 0:
		return fmt.Sprintf("%d ring drops", drops)
	case !equalCounts(got, r.in.stalls):
		return fmt.Sprintf("head stall counts %v differ from the batch reference %v", got, r.in.stalls)
	case !settled:
		return "head totals differ from the merge of the members' final snapshots"
	case len(out.headStats.Rejects) != 0:
		return fmt.Sprintf("head rejected pushes: %v", out.headStats.Rejects)
	case uint64(len(out.verdictMS)) != verdicts:
		return fmt.Sprintf("%d of %d verdicts traced back to their closing record", len(out.verdictMS), verdicts)
	case r.w.paced && r.achieved(out) < 0.98:
		return fmt.Sprintf("source achieved %.3f of the offered rate", r.achieved(out))
	}
	return ""
}

// achieved is the rate the paced source sustained over the offered
// one: the schedule's length over the time the source took.
func (r *runner) achieved(out *repOut) float64 {
	if !r.w.paced || out.inputDone <= 0 {
		return 1
	}
	return float64(r.in.records) / r.sz.pacedRate / out.inputDone.Seconds()
}

func equalCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func jsonEqual(a, b any) bool {
	ja, err := json.Marshal(a)
	if err != nil {
		return false
	}
	jb, err := json.Marshal(b)
	return err == nil && bytes.Equal(ja, jb)
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread alone.
const rusageThread = 1

// cpuTime is user+system CPU charged to the process (or thread) so
// far.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
