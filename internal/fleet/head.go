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
	// SeriesStep and SeriesBuckets override the time-series ring
	// geometry (DefaultSeriesStep / DefaultSeriesBuckets) when positive.
	SeriesStep    time.Duration
	SeriesBuckets int
	// EventRing overrides DefaultEventRing when positive.
	EventRing int
}

// Head is the fleet control plane: it assigns epochs, ingests member
// snapshots, merges them into fleet-wide totals, and hands config
// down. One Head serves many members; all methods are safe for
// concurrent use.
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
	// compacted is the running fold of every retired epoch whose
	// position in the epoch-order fold can no longer change — epochs
	// below every live member's. Folding them once keeps head memory
	// and per-push merge cost bounded by live cardinality instead of
	// epochs-ever-retired. guarded by mu
	compacted Totals
	// retired holds dead epochs not yet folded into compacted: those
	// whose epoch is still above some live member's, so folding them
	// now would break the epoch-order fold. guarded by mu
	retired []Snapshot
	// config is the current downlink, nil until SetConfig. guarded by mu
	config *ConfigUpdate
	// mergeLat samples the totals-rebuild latency per accepted push,
	// in milliseconds. guarded by mu
	mergeLat *stats.Sample
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
	id            string
	epoch         uint64
	lastSeq       uint64
	lastSeen      time.Time
	configVersion uint64
	last          *Snapshot // latest accepted snapshot; nil once retired
	done          bool      // epoch over: final push received or expired
	final         bool
	expired       bool
	restarts      uint64
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
		mergeLat: stats.NewSample(0),
		counters: headCounters{rejects: map[string]uint64{}},
		series:   newSeriesStore(cfg.SeriesStep, cfg.SeriesBuckets),
		events:   newEventRing(cfg.EventRing),
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
	ms.configVersion = 0
	h.counters.registrations++
	h.compactLocked()
	resp := RegisterResponse{Epoch: ms.epoch}
	if h.config != nil {
		resp.Config = h.configCopyLocked()
	}
	return resp, nil
}

// Push ingests one member snapshot. Accepted snapshots REPLACE the
// member's previous one (cumulative counters), so duplicates and
// losses never skew totals; rejected pushes report why. The response
// doubles as the config downlink when the head holds a newer config
// than the member reports applied.
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
	// Validate the payload BEFORE committing anything: dry-run the
	// totals fold with this snapshot standing in for the member's
	// current one. A payload the fold rejects (histogram layout drift,
	// corrupt summary) leaves head state untouched — the member's
	// previous good snapshot keeps contributing, its seq stays where it
	// was, and a Final flag cannot retire garbage into the compacted
	// totals. The fold is also the per-push merge cost fleetbench
	// gates, so it runs under the clock. The window cells, which
	// Window folds rather than Totals, get the same sortedness check.
	start := time.Now()
	_, err := h.foldLocked(ms, &cp)
	h.mergeLat.Add(float64(time.Since(start)) / float64(time.Millisecond))
	if err == nil {
		_, err = freshCells(nil, cp.WindowStalls)
	}
	if err != nil {
		return h.rejectLocked(ErrBadSnapshot)
	}
	// Accepted: difference against the member's previous snapshot of
	// THIS epoch (nil right after register/retire, so an epoch restart
	// rebases the delta to zero) and fold into the time-series rings,
	// then let the new cumulative snapshot replace the old.
	h.series.fold(now, ms.last, &cp)
	h.ingestDigestLocked(&cp)
	if snap.ConfigVersion != ms.configVersion && snap.ConfigVersion > 0 {
		h.publishLocked(Event{
			Type: EventConfigApplied, Member: snap.MemberID,
			Detail: fmt.Sprintf("config v%d", snap.ConfigVersion),
		})
	}
	ms.last = &cp
	ms.lastSeq = snap.Seq
	ms.lastSeen = now
	ms.configVersion = snap.ConfigVersion
	h.counters.pushes++
	if snap.Final {
		ms.done = true
		ms.final = true
		h.retireLocked(ms)
		h.counters.finals++
		h.compactLocked()
		h.publishLocked(Event{
			Type: EventMemberFinal, Member: snap.MemberID,
			Detail: fmt.Sprintf("epoch %d settled", snap.Epoch),
		})
	}
	resp := PushResponse{OK: true}
	if h.config != nil && h.config.Version > snap.ConfigVersion {
		resp.Config = h.configCopyLocked()
	}
	return resp
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

// retireLocked freezes a member's last snapshot into the retired
// totals. Idempotent: the snapshot moves out of the live set as it is
// retired, so a final push followed by expiry (or re-registration)
// cannot double-count.
func (h *Head) retireLocked(ms *memberState) {
	if ms.last != nil {
		h.retired = append(h.retired, *ms.last)
		ms.last = nil
	}
}

// sweepLocked retires every live member that has gone silent past the
// expiry window.
func (h *Head) sweepLocked(now time.Time) {
	swept := false
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
			swept = true
		}
	}
	if swept {
		h.compactLocked()
	}
}

// compactLocked folds every retired epoch that can no longer be
// reordered against a live one — epoch below every live member's —
// into the compacted running total. Because the compacted prefix is
// always below everything still pending, the continued fold is the
// same left fold (same order, same bits) as a from-scratch Aggregate
// over every epoch: totals never depend on when compaction ran.
func (h *Head) compactLocked() {
	if len(h.retired) == 0 {
		return
	}
	threshold := h.lastEpoch + 1
	for _, ms := range h.members {
		if !ms.done && ms.epoch < threshold {
			threshold = ms.epoch
		}
	}
	sort.Slice(h.retired, func(i, j int) bool { return h.retired[i].Epoch < h.retired[j].Epoch })
	n := 0
	for n < len(h.retired) && h.retired[n].Epoch < threshold {
		n++
	}
	if n == 0 {
		return
	}
	// Every retired snapshot already passed the fold at push time, so
	// a failure here should be impossible; if one happens, the epochs
	// from the failing one on stay uncompacted (Totals.add leaves the
	// total unchanged on error), which beats poisoning the running total.
	for i := 0; i < n; i++ {
		if err := h.compacted.add(&h.retired[i]); err != nil {
			n = i
			break
		}
	}
	h.retired = append(h.retired[:0], h.retired[n:]...)
}

// foldLocked computes fleet totals — the compacted prefix, uncompacted
// retired epochs and every live member's latest snapshot, in epoch
// order (see Aggregate) — optionally substituting candidate for member
// skip's latest snapshot: Push's dry run, what totals WOULD be if the
// candidate were accepted, touching no state.
func (h *Head) foldLocked(skip *memberState, candidate *Snapshot) (Totals, error) {
	snaps := make([]*Snapshot, 0, len(h.retired)+len(h.members)+1)
	for i := range h.retired {
		snaps = append(snaps, &h.retired[i])
	}
	for _, ms := range h.members {
		if ms != skip && ms.last != nil {
			snaps = append(snaps, ms.last)
		}
	}
	if candidate != nil {
		snaps = append(snaps, candidate)
	}
	return foldEpochs(Totals{Epochs: h.compacted.Epochs, Counters: h.compacted.Clone()}, snaps)
}

func (h *Head) configCopyLocked() *ConfigUpdate {
	cp := ConfigUpdate{Version: h.config.Version, Settings: map[string]any{}}
	for k, v := range h.config.Settings {
		cp.Settings[k] = v
	}
	return &cp
}

// Totals returns the fleet-wide cumulative totals.
func (h *Head) Totals() (Totals, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweepLocked(h.clock())
	return h.foldLocked(nil, nil)
}

// WindowTotals is the fleet's rolling-window view: live members only,
// since a retired epoch has nothing recent to say.
type WindowTotals struct {
	SpanS   float64        `json:"window_span_s"`
	Members int            `json:"members"`
	Stalls  []StallCounter `json:"stalls,omitempty"`
}

// Window sums the rolling windows of the live members.
func (h *Head) Window() WindowTotals {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweepLocked(h.clock())
	var snaps []*Snapshot
	for _, ms := range h.members {
		if ms.last != nil {
			snaps = append(snaps, ms.last)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Epoch < snaps[j].Epoch })
	out := WindowTotals{Members: len(snaps)}
	for _, s := range snaps {
		out.SpanS = max(out.SpanS, s.WindowSpanS)
		// Push checked the cells sorted, so this cannot fail.
		if fresh, err := freshCells(out.Stalls, s.WindowStalls); err == nil {
			out.Stalls = mergeCells(out.Stalls, s.WindowStalls, fresh)
		}
	}
	return out
}

// MemberInfo is one row of the /fleet/members view.
type MemberInfo struct {
	ID            string  `json:"id"`
	Epoch         uint64  `json:"epoch"`
	LastSeq       uint64  `json:"last_seq"`
	AgeS          float64 `json:"age_s"`
	Live          bool    `json:"live"`
	Final         bool    `json:"final,omitempty"`
	Expired       bool    `json:"expired,omitempty"`
	Restarts      uint64  `json:"restarts,omitempty"`
	ConfigVersion uint64  `json:"config_version"`
	ActiveFlows   int     `json:"active_flows"`
	Ingested      uint64  `json:"records_ingested"`
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
			ID:            ms.id,
			Epoch:         ms.epoch,
			LastSeq:       ms.lastSeq,
			AgeS:          now.Sub(ms.lastSeen).Seconds(),
			Live:          !ms.done,
			Final:         ms.final,
			Expired:       ms.expired,
			Restarts:      ms.restarts,
			ConfigVersion: ms.configVersion,
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

// SetConfig merges the given settings into the downlink config and
// bumps its version; members pick it up on their next push. Returns
// the new version.
func (h *Head) SetConfig(settings map[string]any) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.config == nil {
		h.config = &ConfigUpdate{Settings: map[string]any{}}
	}
	for k, v := range settings {
		h.config.Settings[k] = v
	}
	h.config.Version++
	h.publishLocked(Event{
		Type:   EventConfigSet,
		Detail: fmt.Sprintf("config v%d (%d settings)", h.config.Version, len(h.config.Settings)),
	})
	return h.config.Version
}

// ConfigSnapshot returns a copy of the current downlink config, or
// nil if none has been set.
func (h *Head) ConfigSnapshot() *ConfigUpdate {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.config == nil {
		return nil
	}
	return h.configCopyLocked()
}

// AddSnapshotBytes feeds the wire-bytes counter (called by the HTTP
// layer with each accepted snapshot's body size).
func (h *Head) AddSnapshotBytes(n int) { h.snapBytes.Add(uint64(n)) }

// HeadStats is the head's own accounting, for /metrics and fleetbench.
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
		MergeCount:    h.mergeLat.Len(),

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
	if h.mergeLat.Len() > 0 {
		st.MergeP50MS = h.mergeLat.Quantile(0.5)
		st.MergeP99MS = h.mergeLat.Quantile(0.99)
	}
	return st
}

// Totals is the fleet-wide cumulative merge: counters only — no
// gauges, no identity, no rolling window — so that the sum of every
// epoch's final snapshot is exactly the head's total, byte for byte.
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

// Aggregate merges snapshots into fleet totals. It is the ONE merge
// implementation: the head's totals go through it (as a fold continued
// from the compacted prefix), and the differential test feeds it the
// members' final reports directly — byte-identical output is the
// contract. Inputs are folded in epoch order (epochs are globally
// unique), so float accumulation order — and therefore the exact bits
// — cannot depend on map iteration or on when the head compacted.
func Aggregate(snaps ...Snapshot) (Totals, error) {
	ps := make([]*Snapshot, len(snaps))
	for i := range snaps {
		ps[i] = &snaps[i]
	}
	return foldEpochs(Totals{}, ps)
}

// foldEpochs continues the fold t over snaps in epoch order. Continuing
// from the head's compacted prefix is the same left fold — the same
// float additions in the same order — as folding every epoch anew.
// A fold that saw no histogram renders the default layout.
func foldEpochs(t Totals, snaps []*Snapshot) (Totals, error) {
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Epoch < snaps[j].Epoch })
	for _, s := range snaps {
		if err := t.add(s); err != nil {
			return Totals{}, err
		}
	}
	if len(t.DurationsMS.Counts) == 0 {
		t.DurationsMS = stats.NewHistogram(live.DurationBoundsMS).State()
	}
	return t, nil
}
