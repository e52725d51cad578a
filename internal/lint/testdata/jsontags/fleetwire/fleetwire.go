// Package fleetwire seeds jsontags violations shaped like the fleet
// protocol structs in internal/fleet/wire.go — the drift modes a
// hand-evolved wire format actually grows: a new counter added without
// a tag, a Go-cased tag pasted from a field name, a copy-pasted tag
// colliding with an existing key, a version field "hidden" on an
// unexported member. The clean structs double as false-positive
// guards: the real protocol shapes must keep linting clean.
package fleetwire

// Snapshot mirrors the member push payload.
type Snapshot struct {
	Version  int    `json:"version"`
	MemberID string `json:"member_id"`
	Epoch    uint64 `json:"epoch"`
	Seq      uint64 `json:"seq"`
	Final    bool   `json:"final,omitempty"`

	ActiveFlows int               `json:"active_flows"`
	Ingested    uint64            `json:"records_ingested"`
	RingDrops   uint64            // want `lacks a json tag`
	FlowsSeen   uint64            `json:"FlowsSeen"`        // want `not snake_case`
	Evicted     map[string]uint64 `json:"records_ingested"` // want `duplicates field Ingested`

	Stalls []StallCounter `json:"stalls,omitempty"`
}

// StallCounter is one (service, cause) cell — kept clean, a guard.
type StallCounter struct {
	Service string  `json:"service"`
	Cause   string  `json:"cause"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// RegisterResponse drifts by hiding wire state on an unexported
// field and by a tag that names no key.
type RegisterResponse struct {
	Epoch uint64         `json:"epoch"`
	Base  *Counters      `json:"base,omitempty"`
	epoch uint64         `json:"epoch_internal"` // want `json tag on unexported field`
	Extra map[string]any `json:",omitempty"`     // want `names no key`
}

// Counters is clean — a false-positive guard for map-valued fields
// and omitempty.
type Counters struct {
	Ingested uint64            `json:"records_ingested"`
	Evicted  map[string]uint64 `json:"flows_evicted,omitempty"`
	Internal int               `json:"-"`
}

// headState never serializes: an untagged struct stays out of scope
// even when its shape matches a wire struct.
type headState struct {
	epoch   uint64
	lastSeq uint64
	done    bool
}

func use(h headState) uint64 { return h.epoch + h.lastSeq }

var _ = use(headState{})
