// Package fleet is the aggregation tier above the per-host monitor:
// many tapod members, one tapoctl head. Members periodically snapshot
// their rolling-window state — per-service stall counters, mergeable
// histograms and summaries, triage and eviction accounting — into a
// versioned wire Snapshot and push it to the head over HTTP. The head
// merges snapshots into fleet-wide state and pushes config back down
// in the heartbeat (push) responses.
//
// Protocol invariants:
//
//   - Snapshots carry CUMULATIVE counters since the member epoch
//     started, and the head stores only the latest snapshot per
//     epoch (replace, never add). A delayed duplicate or a lost push
//     therefore never double-counts or leaks: the next push heals
//     everything.
//   - The head assigns each registration a fresh, globally monotonic
//     epoch. A restarted member re-registers, gets a new epoch, and
//     the head retires the old epoch's last snapshot into a frozen
//     total — pushes still in flight from the dead epoch are
//     rejected as stale.
//   - Sequence numbers are per-epoch and strictly increasing; the
//     head discards any push whose seq does not advance.
//
// Fleet-wide totals are then: retired-epoch totals + the latest
// snapshot of every live epoch. Aggregate implements exactly that
// merge, and the differential test pins that the head's totals after
// arbitrary protocol churn (restarts, duplicates, reordering) are
// byte-identical to a direct merge of the members' final reports.
package fleet

import (
	"maps"
	"slices"

	"tcpstall/internal/live"
	"tcpstall/internal/stats"
)

// WireVersion is the snapshot schema version. The head rejects
// snapshots whose version it does not speak; bumping this is the
// signal that a field changed meaning (adding fields is not a bump —
// unknown JSON fields are ignored on both sides).
const WireVersion = 1

// Snapshot is one member's cumulative state as pushed to the head.
type Snapshot struct {
	Version  int    `json:"version"`
	MemberID string `json:"member_id"`
	// Epoch is the head-assigned incarnation of this member; Seq
	// increases by one per push within the epoch.
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// Final marks the member's last push before shutdown: the state is
	// settled (every flow flushed), so the head may retire the epoch
	// without waiting for expiry.
	Final bool `json:"final,omitempty"`
	// ConfigVersion is the head config version the member has applied,
	// so the head can tell which members have converged.
	ConfigVersion uint64 `json:"config_version"`

	// Gauges: the monitor's occupancy at snapshot time. They describe
	// one member now, so they never enter Totals.
	ActiveFlows   int `json:"active_flows"`
	PromotedFlows int `json:"promoted_flows"`
	ParkedFlows   int `json:"parked_flows"`

	// Counters are cumulative since the member epoch started.
	Counters

	// The rolling window, for "right now" fleet views. Only live
	// members' windows are summed; retired epochs contribute nothing
	// recent by definition.
	WindowSpanS  float64        `json:"window_span_s"`
	WindowStalls []StallCounter `json:"window_stalls,omitempty"`

	// Events is the bounded, sampled digest of stall events closed
	// since the previous push — at most MaxDigestEvents, first-K
	// sampled, with the overflow counted in EventsDropped. Events feed
	// the head's live event stream only; they never enter Totals (the
	// stall cells above carry the exact counts), so a dropped event is
	// lost visibility, never lost accounting.
	Events        []StallEvent `json:"events,omitempty"`
	EventsDropped uint64       `json:"events_dropped,omitempty"`
}

// MaxDigestEvents bounds the stall-event digest attached to one push,
// on both sides of the wire: members never send more, and the head
// truncates (and counts) anything past it.
const MaxDigestEvents = 256

// StallEvent is one digested stall close, as pushed to the head's
// event stream. FlowHash is the FNV-1a hash of the flow ID — enough
// to correlate a flow's stalls across events without shipping the
// (potentially identifying, unbounded-cardinality) ID itself.
type StallEvent struct {
	TimeMS     int64   `json:"time_ms"`
	Service    string  `json:"service,omitempty"`
	Cause      string  `json:"cause"`
	DurationMS float64 `json:"duration_ms"`
	FlowHash   uint32  `json:"flow_hash"`
}

// RegisterRequest announces a member (or a restarted incarnation of
// one) to the head.
type RegisterRequest struct {
	Version  int    `json:"version"`
	MemberID string `json:"member_id"`
}

// RegisterResponse assigns the member its epoch and hands down the
// current config, if any has been set.
type RegisterResponse struct {
	Epoch  uint64        `json:"epoch"`
	Config *ConfigUpdate `json:"config,omitempty"`
}

// Push rejection reasons, as they appear in PushResponse.Error and
// the head's metrics labels.
const (
	ErrUnknownMember = "unknown_member" // push before register (or head restarted)
	ErrStaleEpoch    = "stale_epoch"    // a newer incarnation of this member registered
	ErrDuplicateSeq  = "duplicate_seq"  // seq did not advance (delayed duplicate)
	ErrBadSnapshot   = "bad_snapshot"   // malformed or version-incompatible payload
)

// PushResponse doubles as the heartbeat response: acceptance status
// plus the config downlink when the head's config is newer than what
// the member reports applied.
type PushResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Config is present when the member should apply a newer config;
	// members stage it and apply between ingest batches.
	Config *ConfigUpdate `json:"config,omitempty"`
}

// ConfigUpdate is the head→member config downlink. Settings is an
// open key space for forward compatibility: a member applies the keys
// it knows (see the Setting* constants) and counts the ones it does
// not, so a newer head can talk to an older member without breaking
// it.
type ConfigUpdate struct {
	Version  uint64         `json:"version"`
	Settings map[string]any `json:"settings,omitempty"`
}

// The setting keys members understand.
const (
	// SettingSampleOneIn keeps 1 flow in N (flow-granular, by flow-ID
	// hash); 1 or 0 keeps everything.
	SettingSampleOneIn = "sample_one_in"
	// SettingMaxRecordsPerFlow retunes the per-flow analyzer record
	// cap (-1 unlimited, 0 restores the member's configured default).
	SettingMaxRecordsPerFlow = "max_records_per_flow"
	// SettingTriage steers new flows onto ("on"/true) or off
	// ("off"/false) the two-phase fast path.
	SettingTriage = "triage"
	// SettingFlight attaches (true) or withholds (false) flight
	// recorders on new analyzers.
	SettingFlight = "flight"
)

// snapshotOf converts a live monitor snapshot into wire form.
// Identity (member, epoch, seq) and member-level counters (sampling,
// config, batch sizes) are the caller's to fill.
func snapshotOf(s *live.Snapshot) Snapshot {
	out := Snapshot{
		Version:       WireVersion,
		ActiveFlows:   s.ActiveFlows,
		PromotedFlows: s.PromotedFlows,
		ParkedFlows:   s.ParkedFlows,
		Counters: Counters{
			Ingested:                  s.Ingested,
			RingDrops:                 s.RingDrops,
			RecordsFed:                s.RecordsFed,
			RecordCapDrops:            s.RecordsCapDrop,
			FlowsSeen:                 s.FlowsSeen,
			FlowsEvicted:              maps.Clone(s.FlowsEvicted),
			FlowsTruncated:            s.FlowsTruncated,
			TriageFastRecords:         s.TriageFastRecords,
			TriagePromotions:          maps.Clone(s.TriagePromotions),
			TriageRepromotions:        s.TriageRepromotions,
			TriageDemotions:           s.TriageDemotions,
			TriageTruncatedPromotions: s.TriageTruncatedPromotions,
			Stalls:                    stallCounters(s.StallCount, s.StallSeconds),
		},
		WindowSpanS:  s.Window.Span.Seconds(),
		WindowStalls: stallCounters(s.Window.StallCount, s.Window.StallSeconds),
	}
	for c, n := range s.RetransCount {
		out.Retrans = append(out.Retrans, RetransCounter{
			Subcause: c.String(),
			Count:    n,
			Seconds:  s.RetransSeconds[c],
		})
	}
	slices.SortFunc(out.Retrans, func(a, b RetransCounter) int { return a.cmp(&b) })
	if s.DurationsMS != nil {
		out.DurationsMS = s.DurationsMS.State()
	} else {
		out.DurationsMS = stats.NewHistogram(live.DurationBoundsMS).State()
	}
	return out
}

// stallCounters flattens cause-keyed maps into the canonical sorted
// slice form.
func stallCounters(count map[live.CauseKey]uint64, secs map[live.CauseKey]float64) []StallCounter {
	if len(count) == 0 {
		return nil
	}
	out := make([]StallCounter, 0, len(count))
	for k, n := range count {
		out = append(out, StallCounter{
			Service: k.Service,
			Cause:   k.Cause.String(),
			Count:   n,
			Seconds: secs[k],
		})
	}
	slices.SortFunc(out, func(a, b StallCounter) int { return a.cmp(&b) })
	return out
}
