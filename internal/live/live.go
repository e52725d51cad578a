// Package live turns TAPO into an always-on, bounded-memory server
// monitor. A Monitor shards live flows over per-shard goroutines, each
// fed by one bounded queue of record batches; each flow's records
// stream through the same incremental analyzer (core.Incremental) the
// batch path uses, so a flow evicted after teardown carries exactly the
// analysis core.Analyze would have produced from its completed trace.
//
// Memory is hard-bounded: the flow table caps active flows (LRU
// eviction), each flow caps retained analyzer records, and the shard
// queues cap queued batches — every discard is counted, never silent.
// Stalls surface the moment their verdicts settle; per-service cause
// counters, stall-duration histograms and the Table-5 retransmission
// breakdown feed the /metrics and admin planes (see NewHandler). They
// are cumulative: a rate over the last minute is the scraper's (or the
// fleet head's) difference of two readings.
package live

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

// Eviction reasons, as they appear in metrics labels.
const (
	EvictDone     = "done"     // the event marked FlowDone (RST or FIN handshake)
	EvictIdle     = "idle"     // no packet for Config.IdleTimeout
	EvictLRU      = "lru"      // flow table full; least-recently-active flow displaced
	EvictShutdown = "shutdown" // monitor closing
)

// Config tunes a Monitor. The zero value selects the documented
// defaults.
type Config struct {
	// Shards is the number of flow-table shards, each owned by one
	// goroutine (default: GOMAXPROCS).
	Shards int
	// MaxFlows caps active flows across all shards (default 65536).
	// Admitting a flow to a full shard evicts its least-recently-active
	// flow first (reason "lru").
	MaxFlows int
	// MaxRecordsPerFlow caps the records fed to any one flow's
	// analyzer (default 100000; <0 disables). Beyond the cap the
	// flow's later records are dropped and counted, and its analysis
	// covers the retained prefix — one elephant flow cannot grow
	// scoreboard memory without bound.
	MaxRecordsPerFlow int
	// IdleTimeout evicts flows with no packet for this long on the
	// wall clock (default 5m; sweeps run every IdleTimeout/4).
	IdleTimeout time.Duration
	// Analysis parameterizes the per-flow analyzer (zero value:
	// core.DefaultConfig). The triage fast path runs on its Tau.
	Analysis core.Config
	// Flight, when non-nil, attaches a flight recorder (with these
	// settings; zero fields select flight defaults) to every admitted
	// flow, so /debug/flows/{id}/trace can serve per-stall evidence.
	// Nil keeps the analyzers on their zero-overhead path.
	Flight *flight.Config
	// Triage, when non-nil, enables two-phase monitoring: every flow
	// starts on the triage fast path (counters plus a bounded ring of
	// recent records, no scoreboard) and is promoted to a full
	// analyzer — the ring replayed so the analyzer sees the exact
	// history — only when a stall symptom fires. A promoted flow that
	// stays symptom-free for Triage.DemoteAfter parks its analyzer;
	// repromotion replays the parked suffix into the same analyzer,
	// so verdicts stay byte-identical to always-on analysis whenever
	// the ring is deep enough. Zero fields inherit the documented
	// triage defaults.
	Triage *triage.Config
	// Clock supplies wall time (default time.Now; injectable for
	// tests).
	Clock func() time.Time
	// OnFlow, when set, receives each evicted flow's settled analysis
	// and its flight recorder (nil unless Flight is set). Called from
	// shard goroutines with the shard locked: it must be fast and must
	// not call back into the Monitor.
	OnFlow func(reason string, a *core.FlowAnalysis, rec *flight.Recorder)
	// OnStall, when set, receives each stall once, when its verdict
	// settles (see core.Incremental.OnStall). Same constraints as
	// OnFlow.
	OnStall func(core.LiveStall)
}

func (c *Config) defaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 65536
	}
	if c.MaxRecordsPerFlow == 0 {
		c.MaxRecordsPerFlow = 100000
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Analysis.Tau <= 0 {
		c.Analysis.Tau = trace.DefaultTau
	}
	if c.Triage != nil {
		t := c.Triage.WithDefaults()
		c.Triage = &t
	}
	if c.Flight != nil {
		f := c.Flight.WithDefaults()
		c.Flight = &f
	}
}

// Monitor is the live flow table. Create with New, Start, feed with
// IngestBatchWait (or IngestBatch to shed instead of block), and Close
// to drain.
type Monitor struct {
	cfg     Config
	shards  []*shard
	started atomic.Bool
	closed  atomic.Bool
	wg      sync.WaitGroup
	startAt time.Time

	ingested  atomic.Uint64
	ringDrops atomic.Uint64

	// batchFree recycles the per-shard event buffers ingest splits a
	// batch into: the shard returns each buffer after draining it, so
	// steady-state intake allocates nothing.
	batchFree batchFreeList

	recent stallRing
	digest stallDigest
}

// batchFreeList is a mutex-guarded stack of event buffers shared by
// ingest (producer side) and the shard goroutines (return side). One
// lock operation per batch, not per record.
type batchFreeList struct {
	mu   sync.Mutex
	free [][]trace.RecordEvent
	// max bounds retained buffers, so draining a backlog of queued
	// batches cannot pin one buffer per queue slot. Set once in New.
	max int
}

// batchFreePerShard sizes the free list: per shard, the buffer being
// filled by intake, the one being drained, and slack for a queue that
// is never quite empty. Steady-state intake keeps recycling; a backlog's
// extra buffers go to the garbage collector once drained.
const batchFreePerShard = 4

func (p *batchFreeList) get() []trace.RecordEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b[:0]
	}
	return nil
}

func (p *batchFreeList) put(b []trace.RecordEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < p.max {
		p.free = append(p.free, b[:0])
	}
}

// New builds a Monitor (not yet running; call Start).
func New(cfg Config) *Monitor {
	cfg.defaults()
	m := &Monitor{cfg: cfg}
	m.batchFree.max = batchFreePerShard * cfg.Shards
	m.recent.buf = make([]core.LiveStall, recentStalls)
	m.digest.cap = digestSize
	perShard := cfg.MaxFlows / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			m:        m,
			in:       make(chan []trace.RecordEvent, shardQueueDepth),
			flows:    map[string]*flowEntry{},
			maxFlows: perShard,
			agg:      newAggregates(),
		}
		if cfg.Triage != nil {
			sh.arena = triage.NewArena()
		}
		m.shards = append(m.shards, sh)
	}
	return m
}

// Config reports the (defaulted) configuration in effect.
func (m *Monitor) Config() Config { return m.cfg }

// Start launches the shard workers.
func (m *Monitor) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	m.startAt = m.cfg.Clock()
	for _, sh := range m.shards {
		m.wg.Add(1)
		go sh.run()
	}
}

// shardOf maps a flow ID onto its shard (FNV-1a).
func (m *Monitor) shardOf(id string) *shard {
	return m.shards[m.shardIdx(id)]
}

func (m *Monitor) shardIdx(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(len(m.shards)))
}

// IngestBatchWait queues a slice of records, blocking while a target
// shard's queue is full — backpressure for sources that prefer slowing
// down to dropping. The caller keeps ownership of evs; its contents
// are copied. Records of one flow must not be split between concurrent
// intake calls, or their relative order is undefined. It reports false
// only when the monitor is closed.
func (m *Monitor) IngestBatchWait(evs []trace.RecordEvent) bool {
	return m.ingest(evs, true) == len(evs)
}

// IngestBatch is the shed-load form of IngestBatchWait: it never
// blocks. A shard whose queue is full has its share of the batch
// dropped and counted, and the call reports how many records were
// queued — the capture keeps up, the monitor sees what it can.
func (m *Monitor) IngestBatch(evs []trace.RecordEvent) int {
	return m.ingest(evs, false)
}

// ingest is the one intake: events are grouped by shard (order
// preserved within each flow) into recycled buffers and handed over
// with one channel operation per shard, not per record. It returns the
// number of records queued.
func (m *Monitor) ingest(evs []trace.RecordEvent, wait bool) int {
	if len(evs) == 0 {
		return 0
	}
	if m.closed.Load() {
		m.ringDrops.Add(uint64(len(evs)))
		return 0
	}
	queued := 0
	if len(m.shards) == 1 {
		queued = m.shards[0].enqueue(append(m.batchFree.get(), evs...), wait)
	} else {
		// The outer index array is stack-sized for the common shard
		// counts.
		var bufArr [64][]trace.RecordEvent
		var bufs [][]trace.RecordEvent
		if len(m.shards) <= len(bufArr) {
			bufs = bufArr[:len(m.shards)]
		} else {
			bufs = make([][]trace.RecordEvent, len(m.shards))
		}
		for i := range evs {
			s := m.shardIdx(evs[i].FlowID)
			if bufs[s] == nil {
				bufs[s] = m.batchFree.get()
				if bufs[s] == nil {
					bufs[s] = make([]trace.RecordEvent, 0, len(evs))
				}
			}
			bufs[s] = append(bufs[s], evs[i])
		}
		for s, b := range bufs {
			if len(b) > 0 {
				queued += m.shards[s].enqueue(b, wait)
			}
		}
	}
	m.ingested.Add(uint64(queued))
	return queued
}

// Close stops intake, drains the shard queues, flushes every remaining
// flow (reason "shutdown") and waits for the shard workers to exit.
func (m *Monitor) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range m.shards {
		close(sh.in)
	}
	if m.started.Load() {
		m.wg.Wait()
	}
}

// flowEntry is one live flow's state, owned by its shard. In triage
// mode inc is nil until the flow's first promotion; once created it
// survives demotion (parked, so repromotion replays into warm state)
// until eviction.
type flowEntry struct {
	id        string
	inc       *core.Incremental // guarded by the owning shard's mu (external)
	rec       *flight.Recorder  // nil unless Config.Flight is set
	tri       *triage.Flow      // guarded by the owning shard's mu (external)
	promoted  bool              // guarded by the owning shard's mu (external)
	meta      core.FlowMeta
	el        *list.Element // guarded by the owning shard's mu (external)
	lastSeen  time.Time     // guarded by the owning shard's mu (external)
	truncated bool          // guarded by the owning shard's mu (external)
}

// shard owns one slice of the flow table. Its goroutine is the only
// writer; Snapshot and the admin plane read under mu.
type shard struct {
	m *Monitor
	// in is the intake queue: pre-grouped event batches, one channel
	// operation per batch instead of per record.
	in       chan []trace.RecordEvent
	maxFlows int
	// ringDrops counts records shed at THIS shard's full queue — the
	// per-shard split of Monitor.ringDrops, so /metrics can show which
	// shard a hot flow is overloading.
	ringDrops atomic.Uint64

	mu sync.Mutex
	// flows is the live flow table. guarded by mu
	flows map[string]*flowEntry
	// arena recycles triage ring chunks across this shard's flows
	// (nil outside triage mode). guarded by mu
	arena *triage.Arena
	// scratch batches consecutive same-flow records for FeedBatch;
	// reused across runs so the batch path allocates nothing in
	// steady state. guarded by mu
	scratch []trace.Record
	// lru orders entries front = most recently active; values are
	// *flowEntry. guarded by mu
	lru list.List
	// agg folds per-shard counters and stall aggregates. guarded by mu
	agg *aggregates
	// promoted/parked count triage-mode flows with a live analyzer
	// (actively fed / demoted but retained). guarded by mu
	promoted int
	parked   int
}

// shardQueueDepth is each shard's intake queue capacity in batches:
// deep enough that a source rarely waits on a busy shard, shallow
// enough to bound queued memory.
const shardQueueDepth = 64

// enqueue hands one buffer to the shard and reports how many records
// were queued. Without wait a full queue sheds the buffer: counted
// against the monitor and this shard, and recycled.
func (sh *shard) enqueue(b []trace.RecordEvent, wait bool) int {
	if wait {
		sh.in <- b
		return len(b)
	}
	select {
	case sh.in <- b:
		return len(b)
	default:
		sh.m.ringDrops.Add(uint64(len(b)))
		sh.ringDrops.Add(uint64(len(b)))
		sh.m.batchFree.put(b)
		return 0
	}
}

func (sh *shard) run() {
	defer sh.m.wg.Done()
	sweep := time.NewTicker(sh.m.cfg.IdleTimeout / 4)
	defer sweep.Stop()
	for {
		select {
		case evs, ok := <-sh.in:
			if !ok {
				// A closed channel hands over its buffered batches before
				// reporting closed: all that is left is to evict.
				sh.mu.Lock()
				for sh.lru.Len() > 0 {
					sh.evictLocked(sh.lru.Back().Value.(*flowEntry), EvictShutdown)
				}
				sh.mu.Unlock()
				return
			}
			sh.processBatch(evs)
			sh.m.batchFree.put(evs)
		case <-sweep.C:
			sh.sweepIdle()
		}
	}
}

// processBatch runs one pre-grouped event batch under a single lock
// acquisition and clock read, one same-flow run at a time.
func (sh *shard) processBatch(evs []trace.RecordEvent) {
	now := sh.m.cfg.Clock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(evs) > 0 {
		evs = evs[sh.feedRunLocked(now, evs):]
	}
}

// admitLocked looks up ev's flow, admitting it (displacing the
// least-recently-active flow when full) if new, and refreshes its
// recency. Callers hold sh.mu.
func (sh *shard) admitLocked(now time.Time, ev *trace.RecordEvent) *flowEntry {
	e := sh.flows[ev.FlowID]
	if e == nil {
		// Admission: displace the least-recently-active flow when full.
		for len(sh.flows) >= sh.maxFlows && sh.lru.Len() > 0 {
			sh.evictLocked(sh.lru.Back().Value.(*flowEntry), EvictLRU)
		}
		e = &flowEntry{
			id: ev.FlowID,
			meta: core.FlowMeta{
				ID:       ev.FlowID,
				Service:  ev.Service,
				MSS:      ev.MSS,
				InitRwnd: ev.InitRwnd,
			},
		}
		if sh.m.cfg.Triage != nil {
			// Two-phase mode: the flow starts on the fast path; the
			// analyzer is built lazily at first promotion. Ring blocks
			// come from the shard arena and return at eviction.
			e.tri = triage.NewFlowIn(*sh.m.cfg.Triage, sh.m.cfg.Analysis.Tau, sh.arena)
		} else {
			sh.newAnalyzerLocked(e)
		}
		e.el = sh.lru.PushFront(e)
		sh.flows[ev.FlowID] = e
		sh.agg.flowsSeen++
	} else if sh.lru.Front() != e.el {
		sh.lru.MoveToFront(e.el)
	}
	e.lastSeen = now
	return e
}

// newAnalyzerLocked attaches a fresh full analyzer (flight recorder
// included when configured) to e. Callers hold sh.mu.
func (sh *shard) newAnalyzerLocked(e *flowEntry) {
	e.inc = core.NewIncremental(sh.m.cfg.Analysis)
	e.inc.SetMeta(e.meta)
	e.inc.OnStall = sh.stallSettledLocked
	if sh.m.cfg.Flight != nil {
		e.rec = flight.NewRecorder(*sh.m.cfg.Flight)
		e.inc.SetRecorder(e.rec)
	}
}

// feedRunLocked is the one feed loop: it feeds the leading run of evs
// — the events that carry the first one's flow ID — and returns how
// many it consumed. A flow without triage state is the always-promoted
// case: its records accumulate in the shard scratch buffer and reach
// the analyzer through FeedBatch, flushed where order matters — a meta
// change (SetMeta must not overtake earlier records), teardown, the
// end of the run. Triage flows go record by record, since Observe's
// symptom machine wants each one individually. An event marked FlowDone
// evicts the flow and ends the run early, so a remainder under the same
// ID opens a fresh flow when the caller re-enters. Callers hold sh.mu.
func (sh *shard) feedRunLocked(now time.Time, evs []trace.RecordEvent) int {
	e := sh.admitLocked(now, &evs[0])
	pending := sh.scratch[:0]
	capRecs := sh.m.cfg.MaxRecordsPerFlow
	n, evict := 0, false
	for ; n < len(evs) && !evict && evs[n].FlowID == e.id; n++ {
		ev := &evs[n]
		// Late facts — the SYN's MSS, the client's initial window.
		if (ev.MSS > 0 && ev.MSS != e.meta.MSS) || (ev.InitRwnd != 0 && e.meta.InitRwnd == 0) {
			pending = sh.flushLocked(e, pending)
			if ev.MSS > 0 {
				e.meta.MSS = ev.MSS
			}
			if ev.InitRwnd != 0 && e.meta.InitRwnd == 0 {
				e.meta.InitRwnd = ev.InitRwnd
			}
			if e.inc != nil {
				e.inc.SetMeta(e.meta)
			}
		}
		have := len(pending) // records the flow is already charged for
		if e.tri != nil {
			have = satInt(e.tri.Total())
		} else {
			have += e.inc.Records()
		}
		switch {
		case capRecs > 0 && have >= capRecs:
			// Elephant-flow guard: analysis covers the retained prefix.
			e.truncated = true
			sh.agg.recordsCapDrop++
		case e.tri != nil:
			sh.processTriagedLocked(e, ev)
		default:
			pending = append(pending, ev.Rec)
		}
		evict = ev.FlowDone
	}
	sh.scratch = sh.flushLocked(e, pending)
	if evict {
		sh.evictLocked(e, EvictDone)
	}
	return n
}

// flushLocked feeds an always-on flow's pending records to its
// analyzer in one call and returns the emptied buffer. Callers hold sh.mu.
func (sh *shard) flushLocked(e *flowEntry, pending []trace.Record) []trace.Record {
	if len(pending) > 0 {
		e.inc.FeedBatch(pending)
		sh.agg.recordsFed += uint64(len(pending))
	}
	return pending[:0]
}

// processTriagedLocked runs one record of a triage-mode flow: fast path
// first, promotion on symptom, then synchronous replay while
// promoted. Callers hold sh.mu.
func (sh *shard) processTriagedLocked(e *flowEntry, ev *trace.RecordEvent) {
	sym, spill, spilled := e.tri.Observe(&ev.Rec)
	sh.agg.triFastRecords++
	if spilled {
		// The ring overwrote a record the parked analyzer had not
		// consumed: trickle-feed it so parked state stays exact at
		// bounded lag.
		e.inc.Feed(&spill)
		sh.agg.recordsFed++
	}
	if sym != triage.SymNone && !e.promoted {
		sh.promoteLocked(e, sym)
	}
	if !e.promoted {
		return
	}
	e.tri.ReplayUnfed(func(r *trace.Record) {
		e.inc.Feed(r)
		sh.agg.recordsFed++
	})
	if sym == triage.SymNone && e.tri.SinceSymptom(ev.Rec.T) > sh.m.cfg.Triage.DemoteAfter {
		// Healed: park the analyzer. Its state is retained so a later
		// repromotion replays the buffered suffix into warm state and
		// the stall set stays identical to always-on analysis.
		e.promoted = false
		sh.promoted--
		sh.parked++
		sh.agg.triDemotions++
	}
}

// promoteLocked attaches a full analyzer to a symptomatic flow —
// fresh on first promotion (flight recorder included when
// configured), re-attached from parked state afterwards. Callers hold
// sh.mu; the caller replays the buffered suffix right after.
func (sh *shard) promoteLocked(e *flowEntry, sym triage.Symptom) {
	if e.inc == nil {
		sh.newAnalyzerLocked(e)
	} else {
		sh.parked--
		sh.agg.triRepromotions++
	}
	if e.tri.Attach() {
		// The symptom's earliest evidence predates the ring: the
		// analyzer replays from the ring start, conservatively.
		sh.agg.triTruncatedPromotions++
	}
	e.promoted = true
	sh.promoted++
	sh.agg.triPromotions[sym.String()]++
}

// stallSettledLocked is the one point a stall reaches the monitor's
// surfaces. It runs synchronously inside Feed or Flush; the caller
// (the shard goroutine) holds sh.mu.
func (sh *shard) stallSettledLocked(ls core.LiveStall) {
	sh.agg.stallSettled(ls)
	sh.m.recent.push(ls)
	sh.m.digest.push(sh.m.cfg.Clock(), ls)
	if sh.m.cfg.OnStall != nil {
		sh.m.cfg.OnStall(ls)
	}
}

// evictLocked flushes and removes one flow. Callers hold sh.mu.
//
// In triage mode an ever-promoted flow may still hold buffered
// records its analyzer has not consumed — including the records that
// would close a pending stall. Those are replayed through the
// analyzer BEFORE Flush, so eviction mid-stall settles the stall
// instead of silently dropping it. A never-promoted flow is provably
// stall-free (any stall-closing record would have raised the gap
// symptom), so it gets a cheap synthesized summary with no replay —
// that is the whole speedup.
func (sh *shard) evictLocked(e *flowEntry, reason string) {
	delete(sh.flows, e.id)
	sh.lru.Remove(e.el)
	var a *core.FlowAnalysis
	if e.inc != nil {
		if e.tri != nil {
			e.tri.ReplayUnfed(func(r *trace.Record) {
				e.inc.Feed(r)
				sh.agg.recordsFed++
			})
		}
		a = e.inc.Flush()
	} else {
		a = synthesizeSummary(e)
	}
	if e.tri != nil {
		if e.promoted {
			sh.promoted--
		} else if e.inc != nil {
			sh.parked--
		}
		// The summary and any replay are settled; the ring blocks can
		// go back to the shard arena for the next admitted flow.
		e.tri.Release()
	}
	sh.agg.flowsEvicted[reason]++
	if e.truncated {
		sh.agg.flowsTruncated++
	}
	if e.rec != nil {
		// Evidence evictions are settled at eviction: what the
		// MaxStalls cap discarded while the flow lived is final now.
		sh.agg.flightEvidenceDrops += e.rec.EvidenceDrops()
	}
	if sh.m.cfg.OnFlow != nil {
		sh.m.cfg.OnFlow(reason, a, e.rec)
	}
}

// satInt narrows a uint64 counter to int for reporting, saturating at
// the platform maximum instead of wrapping negative.
func satInt(u uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if u > uint64(maxInt) {
		return maxInt
	}
	return int(u)
}

// synthesizeSummary builds the eviction analysis for a flow the fast
// path never promoted. Such a flow provably has zero stalls — the
// fast gap threshold lower-bounds the analyzer's at every record, so
// a stall-closing gap would have promoted — and, having never raised
// the retransmission symptom, every outgoing data segment advanced
// the send edge, so the segment count equals the analyzer's
// DataPackets. The fast path takes no RTT samples, so AvgRTT is 0.
// The per-ACK series stay empty, as in any analysis made without
// core.Config.PerACKSeries.
func synthesizeSummary(e *flowEntry) *core.FlowAnalysis {
	a := &core.FlowAnalysis{
		FlowID:      e.meta.ID,
		Service:     e.meta.Service,
		InitRwnd:    e.meta.InitRwnd,
		DataPackets: e.tri.OutDataSegments(),
		DataBytes:   e.tri.DataBytes(),
	}
	if e.tri.Total() > 1 {
		a.TransmissionTime = e.tri.LastT().Sub(e.tri.FirstT())
	}
	return a
}

// sweepIdle evicts flows idle past the configured timeout. The shard
// workers call it periodically; tests may call it directly.
func (sh *shard) sweepIdle() {
	cutoff := sh.m.cfg.Clock().Add(-sh.m.cfg.IdleTimeout)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Walk from the LRU tail: the first fresh-enough flow ends the
	// sweep, since recency is monotone along the list.
	for sh.lru.Len() > 0 {
		e := sh.lru.Back().Value.(*flowEntry)
		if !e.lastSeen.Before(cutoff) {
			return
		}
		sh.evictLocked(e, EvictIdle)
	}
}

// recentStalls bounds the admin plane's recent-stall ring.
const recentStalls = 256

// stallRing keeps the most recent stall events for the admin plane.
type stallRing struct {
	mu sync.Mutex
	// buf is the fixed ring storage. guarded by mu
	buf []core.LiveStall
	// next is the slot the next push lands in. guarded by mu
	next int
	// n is the number of live entries. guarded by mu
	n int
}

func (r *stallRing) push(ls core.LiveStall) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = ls
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns the retained stalls, oldest first.
func (r *stallRing) list() []core.LiveStall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.LiveStall, 0, r.n)
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// RecentStalls returns the most recent settled stalls, oldest first.
func (m *Monitor) RecentStalls() []core.LiveStall { return m.recent.list() }

// DigestedStall is one settled stall retained by the stall digest: the
// live event plus the wall-clock time it settled at.
type DigestedStall struct {
	At    time.Time
	Stall core.LiveStall
}

// digestSize bounds the stall digest: the events retained per drain
// interval, which is fleet.MaxDigestEvents, the most one push carries.
const digestSize = 256

// stallDigest is the drain-and-reset event buffer behind
// DrainStallDigest. Unlike stallRing (which rotates, keeping the
// newest), the digest keeps the FIRST cap events of each drain
// interval and counts the rest — a deterministic sampling bound, so
// one stall storm cannot grow a fleet push without bound while the
// overflow still surfaces as a count.
type stallDigest struct {
	// cap bounds retained events per drain interval (digestSize).
	cap int
	// armed is set by the first drain. Until then push keeps nothing
	// and takes no lock: a monitor nothing drains (tapo, tapod without
	// a head) pays one atomic load per settled stall.
	armed atomic.Bool

	mu sync.Mutex
	// buf holds the retained events, oldest first. guarded by mu
	buf []DigestedStall
	// dropped counts events past cap since the last drain. guarded by mu
	dropped uint64
}

func (d *stallDigest) push(now time.Time, ls core.LiveStall) {
	if !d.armed.Load() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) >= d.cap {
		d.dropped++
		return
	}
	d.buf = append(d.buf, DigestedStall{At: now, Stall: ls})
}

// DrainStallDigest returns the stall events digested since the last
// drain (oldest first) plus the count dropped past the digest bound,
// and resets both. The digest keeps stalls only from the first drain
// on: fleet.NewMember drains once when it wraps the monitor, then once
// per push.
func (m *Monitor) DrainStallDigest() ([]DigestedStall, uint64) {
	d := &m.digest
	d.armed.Store(true)
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.buf
	dropped := d.dropped
	d.buf = nil
	d.dropped = 0
	return out, dropped
}

// Snapshot is a point-in-time view of the monitor's counters.
type Snapshot struct {
	Uptime      time.Duration
	ActiveFlows int
	Ingested    uint64
	RingDrops   uint64
	// ShardRingDrops splits RingDrops by shard (drops charged to the
	// monitor as a whole — e.g. ingest after Close — appear only in
	// the total).
	ShardRingDrops []uint64

	FlowsSeen      uint64
	FlowsEvicted   map[string]uint64
	FlowsTruncated uint64
	RecordsFed     uint64
	RecordsCapDrop uint64

	// FlightEvidenceDrops counts flight-recorder evidence evictions,
	// settled at flow eviction. Zero when Config.Flight is nil.
	FlightEvidenceDrops uint64

	// Two-phase triage state (all zero when Config.Triage is nil).
	// PromotedFlows/ParkedFlows are gauges over the live flow table;
	// the rest are cumulative counters, promotions keyed by symptom
	// name.
	PromotedFlows             int
	ParkedFlows               int
	TriageFastRecords         uint64
	TriagePromotions          map[string]uint64
	TriageRepromotions        uint64
	TriageDemotions           uint64
	TriageTruncatedPromotions uint64

	StallCount   map[CauseKey]uint64
	StallTime    map[CauseKey]time.Duration
	DurationsMS  *stats.Histogram
	RetransCount map[core.RetransCause]uint64
	RetransTime  map[core.RetransCause]time.Duration
}

// Snapshot merges every shard's counters under their locks.
func (m *Monitor) Snapshot() Snapshot {
	now := m.cfg.Clock()
	total := newAggregates()
	active := 0
	promoted, parked := 0, 0
	shardDrops := make([]uint64, len(m.shards))
	for i, sh := range m.shards {
		sh.mu.Lock()
		total.merge(sh.agg)
		active += len(sh.flows)
		promoted += sh.promoted
		parked += sh.parked
		sh.mu.Unlock()
		shardDrops[i] = sh.ringDrops.Load()
	}
	s := Snapshot{
		ActiveFlows:    active,
		Ingested:       m.ingested.Load(),
		RingDrops:      m.ringDrops.Load(),
		ShardRingDrops: shardDrops,
		FlowsSeen:      total.flowsSeen,
		FlowsEvicted:   total.flowsEvicted,
		FlowsTruncated: total.flowsTruncated,
		RecordsFed:     total.recordsFed,
		RecordsCapDrop: total.recordsCapDrop,

		FlightEvidenceDrops: total.flightEvidenceDrops,

		PromotedFlows:             promoted,
		ParkedFlows:               parked,
		TriageFastRecords:         total.triFastRecords,
		TriagePromotions:          total.triPromotions,
		TriageRepromotions:        total.triRepromotions,
		TriageDemotions:           total.triDemotions,
		TriageTruncatedPromotions: total.triTruncatedPromotions,

		StallCount:   total.stallCount,
		StallTime:    total.stallTime,
		DurationsMS:  total.durationsMS,
		RetransCount: total.retransCount,
		RetransTime:  total.retransTime,
	}
	if m.started.Load() {
		s.Uptime = now.Sub(m.startAt)
	}
	return s
}

// FlowInfo is one active flow as the admin plane reports it.
type FlowInfo struct {
	ID        string    `json:"id"`
	Service   string    `json:"service,omitempty"`
	Records   int       `json:"records"`
	DataBytes int64     `json:"data_bytes"`
	Stalls    int       `json:"stalls"`
	LastT     float64   `json:"last_record_s"`
	LastSeen  time.Time `json:"last_seen"`
	Truncated bool      `json:"truncated,omitempty"`

	// Triage-mode state: Triaged marks a flow on the two-phase path;
	// Promoted means its full analyzer is live-fed, Parked that the
	// analyzer is retained but demoted. LastSymptom names the most
	// recent promotion symptom.
	Triaged     bool   `json:"triaged,omitempty"`
	Promoted    bool   `json:"promoted,omitempty"`
	Parked      bool   `json:"parked,omitempty"`
	LastSymptom string `json:"last_symptom,omitempty"`
}

// Flows lists the active flows across all shards (unordered between
// shards; insertion-recency order within one).
func (m *Monitor) Flows() []FlowInfo {
	var out []FlowInfo
	for _, sh := range m.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			out = append(out, infoOf(el.Value.(*flowEntry)))
		}
		sh.mu.Unlock()
	}
	return out
}

func infoOf(e *flowEntry) FlowInfo {
	fi := FlowInfo{
		ID:        e.id,
		Service:   e.meta.Service,
		LastSeen:  e.lastSeen,
		Truncated: e.truncated,
	}
	if e.tri != nil {
		fi.Triaged = true
		fi.Records = satInt(e.tri.Total())
		fi.DataBytes = e.tri.DataBytes()
		fi.LastT = e.tri.LastT().Seconds()
		fi.Promoted = e.promoted
		fi.Parked = !e.promoted && e.inc != nil
		if s := e.tri.LastSymptom(); s != triage.SymNone {
			fi.LastSymptom = s.String()
		}
		if e.inc != nil {
			fi.Stalls = e.inc.Stalls()
		}
		return fi
	}
	fi.Records = e.inc.Records()
	fi.DataBytes = e.inc.DataBytesSoFar()
	fi.Stalls = e.inc.Stalls()
	fi.LastT = sim.Time(e.inc.LastT()).Seconds()
	return fi
}

// Flow looks up one active flow by exact ID.
func (m *Monitor) Flow(id string) (FlowInfo, bool) {
	var info FlowInfo
	ok := m.withFlow(id, func(e *flowEntry) { info = infoOf(e) })
	return info, ok
}

// FlowTrace is the /debug/flows/{id}/trace payload: everything the
// flow's flight recorder holds — its evidence entries and the events
// of its current window — deep-copied so it can be marshalled after
// the shard lock is released.
type FlowTrace struct {
	FlowInfo
	// Flight is false when the monitor runs without recorders; the
	// evidence fields are then empty.
	Flight        bool                  `json:"flight"`
	EvidenceDrops uint64                `json:"evidence_drops"`
	Evidences     []flight.EvidenceJSON `json:"evidences"`
	Events        []flight.EventJSON    `json:"events"`
}

// FlowTrace snapshots one active flow's flight-recorder state.
func (m *Monitor) FlowTrace(id string) (FlowTrace, bool) {
	var ft FlowTrace
	ok := m.withFlow(id, func(e *flowEntry) {
		ft.FlowInfo = infoOf(e)
		if e.rec == nil {
			return
		}
		ft.Flight = true
		ft.EvidenceDrops = e.rec.EvidenceDrops()
		for _, ev := range e.rec.Evidences() {
			ft.Evidences = append(ft.Evidences, ev.JSON())
		}
		for _, e := range e.rec.Events() {
			ft.Events = append(ft.Events, e.JSON())
		}
	})
	return ft, ok
}

// withFlow runs fn on one active flow under its shard's lock,
// reporting whether the flow exists. fn must not call back into the
// Monitor.
func (m *Monitor) withFlow(id string, fn func(*flowEntry)) bool {
	sh := m.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.flows[id]
	if e == nil {
		return false
	}
	fn(e)
	return true
}
