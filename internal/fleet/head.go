package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcpstall/internal/live"
	"tcpstall/internal/stats"
)

// DefaultExpiry is how long a member may go silent before the head
// retires its epoch. Three missed pushes at the default interval is
// loss; twelve is a dead host.
const DefaultExpiry = 60 * time.Second

// HeadConfig configures a Head.
type HeadConfig struct {
	// Expiry overrides DefaultExpiry when positive.
	Expiry time.Duration
	// Clock overrides time.Now — injected by tests so expiry is
	// deterministic.
	Clock func() time.Time
}

// Head is the fleet control plane: it assigns epochs, ingests member
// snapshots, and merges them into fleet-wide totals. One Head serves
// many members; all methods are safe for concurrent use.
type Head struct {
	clock  func() time.Time
	expiry time.Duration

	// snapBytes counts wire bytes of accepted snapshots (fed by the
	// HTTP handler; atomic so the hot path skips the head lock).
	snapBytes atomic.Uint64

	mu sync.Mutex
	// members holds every member ever registered. guarded by mu
	members map[string]*memberState
	// lastEpoch is the epoch counter; registration hands out
	// lastEpoch+1. guarded by mu
	lastEpoch uint64
	// retired is the fold of every dead epoch's last snapshot, folded
	// in as the epoch retires, so head memory and per-push cost stay
	// bounded by live members, not epochs ever seen. guarded by mu
	retired Totals
	// mergeLat is a ring of the validation fold's latency, in
	// milliseconds, over the last mergeLatCap pushes that reach it;
	// mergeN counts every one. guarded by mu
	mergeLat [mergeLatCap]float64
	mergeN   int
	// counters is the head's own accounting. guarded by mu
	counters headCounters
	// series holds the per-interval delta rings fed by accepted
	// pushes. guarded by mu
	series *seriesStore
	// events is the merged event ring. It has its own mutex, strictly
	// below mu in lock order (Head methods publish while holding mu).
	events *eventRing
}

// headCounters is the head's protocol accounting. Owned by the Head;
// guarded by its mu.
type headCounters struct {
	registrations uint64
	restarts      uint64
	expiries      uint64
	pushes        uint64 // accepted
	finals        uint64
	rejects       map[string]uint64 // by PushResponse error code

	// stallEvents counts digest events ingested into the event ring;
	// digestDropped sums the members' own reported digest overflow;
	// digestTruncated counts events the head cut past MaxDigestEvents.
	stallEvents     uint64
	digestDropped   uint64
	digestTruncated uint64
}

// memberState is one member's registration record. Single-owner:
// every field is guarded by Head.mu — memberState pointers never
// escape the Head methods that look them up under the lock.
type memberState struct {
	id       string
	epoch    uint64
	lastSeq  uint64
	lastSeen time.Time
	last     *Snapshot // latest accepted snapshot; nil once retired
	done     bool      // epoch over: final push received or expired
	final    bool
	expired  bool
	restarts uint64
}

// NewHead builds a Head.
func NewHead(cfg HeadConfig) *Head {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Expiry <= 0 {
		cfg.Expiry = DefaultExpiry
	}
	return &Head{
		clock:    cfg.Clock,
		expiry:   cfg.Expiry,
		members:  map[string]*memberState{},
		retired:  emptyTotals(),
		counters: headCounters{rejects: map[string]uint64{}},
		series:   newSeriesStore(),
		events:   newEventRing(),
	}
}

// Register assigns the member a fresh epoch. Re-registering an
// existing member retires its previous epoch first — the protocol's
// restart semantics — so the old incarnation's last snapshot is
// frozen into the totals and any of its still-in-flight pushes will
// be rejected as stale.
func (h *Head) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.MemberID == "" {
		return RegisterResponse{}, fmt.Errorf("fleet: register with empty member_id")
	}
	if req.Version != WireVersion {
		return RegisterResponse{}, fmt.Errorf("fleet: member %s speaks wire v%d, head speaks v%d", req.MemberID, req.Version, WireVersion)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	h.sweepLocked(now)
	ms := h.members[req.MemberID]
	if ms == nil {
		ms = &memberState{id: req.MemberID}
		h.members[req.MemberID] = ms
		h.publishLocked(Event{Type: EventMemberJoin, Member: req.MemberID})
	} else {
		h.retireLocked(ms)
		ms.restarts++
		h.counters.restarts++
		h.publishLocked(Event{
			Type: EventMemberRestart, Member: req.MemberID,
			Detail: fmt.Sprintf("epoch %d retired", ms.epoch),
		})
	}
	h.lastEpoch++
	ms.epoch = h.lastEpoch
	ms.lastSeq = 0
	ms.lastSeen = now
	ms.done = false
	ms.final = false
	ms.expired = false
	h.counters.registrations++
	return RegisterResponse{Epoch: ms.epoch}, nil
}

// Push ingests one member snapshot. Accepted snapshots REPLACE the
// member's previous one (cumulative counters), so duplicates and
// losses never skew totals; rejected pushes report why.
func (h *Head) Push(snap *Snapshot) PushResponse {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	h.sweepLocked(now)
	if snap == nil || snap.Version != WireVersion || snap.MemberID == "" {
		return h.rejectLocked(ErrBadSnapshot)
	}
	ms := h.members[snap.MemberID]
	if ms == nil {
		return h.rejectLocked(ErrUnknownMember)
	}
	if snap.Epoch != ms.epoch || ms.done {
		return h.rejectLocked(ErrStaleEpoch)
	}
	if snap.Seq <= ms.lastSeq {
		return h.rejectLocked(ErrDuplicateSeq)
	}
	cp := *snap
	// Validate the payload BEFORE committing anything by folding it
	// alone into an empty total. Merge's checks look only at the
	// payload and the fixed histogram layout, so a snapshot that folds
	// here folds into any total. A payload the fold rejects (foreign
	// histogram layout, corrupt summary) leaves head state untouched —
	// the member's previous good snapshot keeps contributing, its seq
	// stays where it was, and a Final flag cannot retire garbage. The
	// fold is the per-push merge cost (the chain benchmark's
	// fleet.head_merge_p99_ms), so it runs under the clock.
	start := time.Now()
	probe := emptyTotals()
	err := probe.add(&cp)
	h.mergeLat[h.mergeN%mergeLatCap] = float64(time.Since(start)) / float64(time.Millisecond)
	h.mergeN++
	if err != nil {
		return h.rejectLocked(ErrBadSnapshot)
	}
	// Accepted: difference against the member's previous snapshot of
	// THIS epoch (nil right after register/retire, so an epoch restart
	// rebases the delta to zero) and fold into the time-series rings,
	// then let the new cumulative snapshot replace the old.
	h.series.fold(now, ms.last, &cp)
	h.ingestDigestLocked(&cp)
	ms.last = &cp
	ms.lastSeq = snap.Seq
	ms.lastSeen = now
	h.counters.pushes++
	if snap.Final {
		ms.done = true
		ms.final = true
		h.retireLocked(ms)
		h.counters.finals++
		h.publishLocked(Event{
			Type: EventMemberFinal, Member: snap.MemberID,
			Detail: fmt.Sprintf("epoch %d settled", snap.Epoch),
		})
	}
	return PushResponse{OK: true}
}

// rejectUndecodable counts and shapes the rejection of a push body
// that does not decode, such as one of another wire version.
func (h *Head) rejectUndecodable() PushResponse {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rejectLocked(ErrBadSnapshot)
}

// rejectLocked counts and shapes one push rejection. The first
// rejection of each code is an event, then every rejectSpikeEvery-th
// after — a storm surfaces in the stream without flooding it.
func (h *Head) rejectLocked(code string) PushResponse {
	h.counters.rejects[code]++
	if n := h.counters.rejects[code]; n == 1 || n%rejectSpikeEvery == 0 {
		h.publishLocked(Event{
			Type:   EventRejectSpike,
			Detail: fmt.Sprintf("%s x%d", code, n),
		})
	}
	return PushResponse{OK: false, Error: code}
}

// retireLocked folds a member's last snapshot into the retired
// totals. Idempotent: the snapshot moves out of the live set as it is
// retired, so a final push followed by expiry (or re-registration)
// cannot double-count. The fold cannot fail: Push accepted the
// snapshot only after it folded alone into an empty total, the
// retired total carries the same layout, and the batch count
// saturates rather than wrapping negative.
func (h *Head) retireLocked(ms *memberState) {
	if ms.last != nil {
		_ = h.retired.add(ms.last)
		ms.last = nil
	}
}

// sweepLocked retires every live member that has gone silent past the
// expiry window.
func (h *Head) sweepLocked(now time.Time) {
	for _, ms := range h.members {
		if !ms.done && now.Sub(ms.lastSeen) > h.expiry {
			ms.done = true
			ms.expired = true
			h.retireLocked(ms)
			h.counters.expiries++
			h.publishLocked(Event{
				Type: EventMemberExpired, Member: ms.id,
				Detail: fmt.Sprintf("epoch %d silent %.0fs", ms.epoch, now.Sub(ms.lastSeen).Seconds()),
			})
		}
	}
}

// Totals returns the fleet-wide cumulative totals: the retired total
// plus every live member's latest snapshot, in map order.
func (h *Head) Totals() (Totals, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweepLocked(h.clock())
	t := Totals{Epochs: h.retired.Epochs, Counters: h.retired.Clone()}
	for _, ms := range h.members {
		if ms.last != nil {
			if err := t.add(ms.last); err != nil {
				return Totals{}, err
			}
		}
	}
	return t, nil
}

// WindowTotals is the fleet's rolling-window view: the stall cells
// pushed in the last minute, and how many members are live.
type WindowTotals struct {
	SpanS   float64        `json:"window_span_s"`
	Members int            `json:"members"`
	Stalls  []StallCounter `json:"stalls,omitempty"`
}

// Window sums the fleet time-series ring's last windowBuckets buckets,
// the current one included, so it agrees with /fleet/timeseries by
// construction. A stall counts from the push that carried it; a member
// retired inside the window still contributes what it pushed.
func (h *Head) Window() WindowTotals {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	h.sweepLocked(now)
	out := WindowTotals{SpanS: (time.Duration(windowBuckets) * seriesStep).Seconds()}
	for _, ms := range h.members {
		if ms.last != nil {
			out.Members++
		}
	}
	cur := now.UnixNano() / int64(seriesStep)
	for ep := cur - windowBuckets + 1; ep <= cur; ep++ {
		if b := h.series.fleet.at(ep); b != nil {
			// The bucket's cells are ascending, so this cannot fail.
			if fresh, err := freshCells(out.Stalls, b.stalls); err == nil {
				out.Stalls = mergeCells(out.Stalls, b.stalls, fresh)
			}
		}
	}
	return out
}

// MemberInfo is one row of the /fleet/members view.
type MemberInfo struct {
	ID          string  `json:"id"`
	Epoch       uint64  `json:"epoch"`
	LastSeq     uint64  `json:"last_seq"`
	AgeS        float64 `json:"age_s"`
	Live        bool    `json:"live"`
	Final       bool    `json:"final,omitempty"`
	Expired     bool    `json:"expired,omitempty"`
	Restarts    uint64  `json:"restarts,omitempty"`
	ActiveFlows int     `json:"active_flows"`
	Ingested    uint64  `json:"records_ingested"`
}

// Members lists every known member, live and dead, sorted by ID.
func (h *Head) Members() []MemberInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	h.sweepLocked(now)
	out := make([]MemberInfo, 0, len(h.members))
	for _, ms := range h.members {
		mi := MemberInfo{
			ID:       ms.id,
			Epoch:    ms.epoch,
			LastSeq:  ms.lastSeq,
			AgeS:     now.Sub(ms.lastSeen).Seconds(),
			Live:     !ms.done,
			Final:    ms.final,
			Expired:  ms.expired,
			Restarts: ms.restarts,
		}
		if ms.last != nil {
			mi.ActiveFlows = ms.last.ActiveFlows
			mi.Ingested = ms.last.Ingested
		}
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddSnapshotBytes feeds the wire-bytes counter (called by the HTTP
// layer with each accepted snapshot's body size).
func (h *Head) AddSnapshotBytes(n int) { h.snapBytes.Add(uint64(n)) }

// HeadStats is the head's own accounting, for /metrics and the chain benchmark.
type HeadStats struct {
	Members       int               `json:"members"`
	LiveMembers   int               `json:"live_members"`
	Registrations uint64            `json:"registrations"`
	Restarts      uint64            `json:"restarts"`
	Expiries      uint64            `json:"expiries"`
	Pushes        uint64            `json:"pushes"`
	FinalPushes   uint64            `json:"final_pushes"`
	Rejects       map[string]uint64 `json:"rejects,omitempty"`
	SnapshotBytes uint64            `json:"snapshot_bytes"`
	MergeCount    int               `json:"merge_count"`
	MergeP50MS    float64           `json:"merge_p50_ms"`
	MergeP99MS    float64           `json:"merge_p99_ms"`

	// Event-stream accounting: digest events ingested from pushes, the
	// members' own reported digest overflow, head-side truncation past
	// MaxDigestEvents, total events published (stall + control plane),
	// ring overwrites, live-delivery misses, and open subscriptions.
	StallEvents      uint64 `json:"stall_events"`
	DigestDropped    uint64 `json:"digest_dropped"`
	DigestTruncated  uint64 `json:"digest_truncated"`
	EventsPublished  uint64 `json:"events_published"`
	EventsOverwrote  uint64 `json:"events_overwrote"`
	EventsLagged     uint64 `json:"events_lagged"`
	EventSubscribers int    `json:"event_subscribers"`
	// SeriesDroppedKeys counts time-series folds refused a new keyed
	// ring by the cardinality bound.
	SeriesDroppedKeys uint64 `json:"series_dropped_keys"`
}

// Stats snapshots the head's counters and merge-latency quantiles.
func (h *Head) Stats() HeadStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweepLocked(h.clock())
	st := HeadStats{
		Members:       len(h.members),
		Registrations: h.counters.registrations,
		Restarts:      h.counters.restarts,
		Expiries:      h.counters.expiries,
		Pushes:        h.counters.pushes,
		FinalPushes:   h.counters.finals,
		SnapshotBytes: h.snapBytes.Load(),
		MergeCount:    h.mergeN,

		StallEvents:       h.counters.stallEvents,
		DigestDropped:     h.counters.digestDropped,
		DigestTruncated:   h.counters.digestTruncated,
		SeriesDroppedKeys: h.series.droppedKeys,
	}
	st.EventsPublished, st.EventsOverwrote, st.EventsLagged, st.EventSubscribers = h.events.stats()
	for _, ms := range h.members {
		if !ms.done {
			st.LiveMembers++
		}
	}
	if len(h.counters.rejects) > 0 {
		st.Rejects = map[string]uint64{}
		for k, n := range h.counters.rejects {
			st.Rejects[k] = n
		}
	}
	if h.mergeN > 0 {
		lat := stats.NewSample(0)
		lat.AddAll(h.mergeLat[:min(h.mergeN, mergeLatCap)])
		st.MergeP50MS = lat.Quantile(0.5)
		st.MergeP99MS = lat.Quantile(0.99)
	}
	return st
}

// mergeLatCap bounds the merge-latency ring, so Stats sorts at most
// this many values under mu however long the head runs. One
// chain-benchmark fleet_push run is about 3.5k pushes.
const mergeLatCap = 4096

// Totals is the fleet-wide cumulative merge: counters only — no
// gauges, no identity — so that the sum of every epoch's final
// snapshot is exactly the head's total, byte for byte.
type Totals struct {
	Epochs int `json:"epochs"`
	Counters
}

// add folds one snapshot in: the version check, one more epoch, and
// Counters.Merge. On error t is unchanged.
func (t *Totals) add(s *Snapshot) error {
	if s.Version != WireVersion {
		return fmt.Errorf("fleet: aggregate: snapshot from %q speaks wire v%d, want v%d", s.MemberID, s.Version, WireVersion)
	}
	if err := t.Merge(&s.Counters); err != nil {
		return fmt.Errorf("fleet: aggregate: snapshot from %q: %w", s.MemberID, err)
	}
	t.Epochs++
	return nil
}

// Aggregate merges snapshots into fleet totals. It is the fold the
// head runs, and the differential test feeds it the members' final
// reports directly: byte-identical output is the contract. The fold is
// exact integer arithmetic, so input order does not matter.
func Aggregate(snaps ...Snapshot) (Totals, error) {
	t := emptyTotals()
	for i := range snaps {
		if err := t.add(&snaps[i]); err != nil {
			return Totals{}, err
		}
	}
	return t, nil
}

// emptyTotals is the fold's starting point: no epochs, and the one
// histogram layout the head accepts, live.DurationBoundsMS.
func emptyTotals() Totals {
	return Totals{Counters: Counters{DurationsMS: stats.NewHistogram(live.DurationBoundsMS).State()}}
}
