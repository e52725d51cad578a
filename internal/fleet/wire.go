// Package fleet is the aggregation tier above the per-host monitor:
// many tapod members, one tapoctl head. Members periodically snapshot
// their cumulative counters — per-service stall counters, mergeable
// histograms and summaries, triage and eviction accounting — into a
// versioned wire Snapshot and push it to the head over HTTP. The head
// merges snapshots into fleet-wide state and differences consecutive
// ones into its time-series rings, which also give the "stalls in the
// last minute" window. Nothing flows back down but acceptance: a
// member is configured by its own flags.
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
// snapshot of every live epoch. Every summed value is an integer, so
// the fold gives the same bits in any order: Aggregate is the same
// fold over a list, and the differential test pins that the head's
// totals after arbitrary protocol churn (restarts, duplicates,
// reordering) are byte-identical to a direct merge of the members'
// final reports.
package fleet

import (
	"maps"
	"slices"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
)

// WireVersion is the snapshot schema version, the first value of
// every push body. The head rejects snapshots whose version it does
// not speak. Any change to a wire struct bumps it, an added field
// too: the push encoding has no room for a field the other side does
// not know (tapolint's wirefreeze holds the bump to the change).
const WireVersion = 7

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

	// Gauges: the monitor's occupancy at snapshot time. They describe
	// one member now, so they never enter Totals.
	ActiveFlows   int `json:"active_flows"`
	PromotedFlows int `json:"promoted_flows"`
	ParkedFlows   int `json:"parked_flows"`

	// Counters are cumulative since the member epoch started.
	Counters

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
// event stream: the stall record plus when and where it closed.
// FlowHash is the FNV-1a hash of the flow ID — enough to correlate a
// flow's stalls across events without shipping the (potentially
// identifying, unbounded-cardinality) ID itself.
type StallEvent struct {
	TimeMS   int64  `json:"time_ms"`
	Service  string `json:"service,omitempty"`
	FlowHash uint32 `json:"flow_hash"`
	core.StallJSON
}

// RegisterRequest announces a member (or a restarted incarnation of
// one) to the head.
type RegisterRequest struct {
	Version  int    `json:"version"`
	MemberID string `json:"member_id"`
}

// RegisterResponse assigns the member its epoch.
type RegisterResponse struct {
	Epoch uint64 `json:"epoch"`
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
// and, on rejection, its reason.
type PushResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// snapshotOf converts a live monitor snapshot into wire form.
// Identity (member, epoch, seq) and the member-level batch sizes are
// the caller's to fill.
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
			Stalls:                    stallCounters(s.StallCount, s.StallTime),
		},
	}
	for c, n := range s.RetransCount {
		out.Retrans = append(out.Retrans, RetransCounter{
			Subcause: c.String(),
			Count:    n,
			Time:     s.RetransTime[c],
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
func stallCounters(count map[live.CauseKey]uint64, dur map[live.CauseKey]time.Duration) []StallCounter {
	if len(count) == 0 {
		return nil
	}
	out := make([]StallCounter, 0, len(count))
	for k, n := range count {
		out = append(out, StallCounter{
			Service: k.Service,
			Cause:   k.Cause.String(),
			Count:   n,
			Time:    dur[k],
		})
	}
	slices.SortFunc(out, func(a, b StallCounter) int { return a.cmp(&b) })
	return out
}
