// Package fleet drifts from the frozen ok/ snapshot without bumping
// WireVersion: a field retagged inside an embedded struct, a
// renamed/retyped counter field, and a brand-new struct grafted onto
// the wire surface. All three must surface as findings.
package fleet

// WireVersion was NOT bumped for the drift below.
const WireVersion = 1

// Snapshot's only change is inside the embedded Identity, whose
// fields encoding/json inlines — so the drift is Snapshot's.
type Snapshot struct { // want `changed .* without regenerating`
	Version int `json:"version"`
	Identity
	Stalls []StallCounter `json:"stalls,omitempty"`
}

// Identity retags member_id as member.
type Identity struct {
	MemberID string `json:"member"`
}

// StallCounter renamed Count to Total — the mixed-version poison —
// and grew a field.
type StallCounter struct { // want `changed .* without regenerating`
	Service string `json:"service"`
	Cause   string `json:"cause"`
	Total   uint64 `json:"total"`
	Extra   *Extra `json:"extra,omitempty"`
}

// Extra is new wire surface the snapshot has never seen.
type Extra struct { // want `new \(or renamed\)`
	Note string `json:"note"`
}
