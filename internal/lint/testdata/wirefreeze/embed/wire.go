// Package fleet moves the ok/ fields into untagged embedded structs,
// one by value and one by pointer. encoding/json inlines both, so the
// wire is unchanged and the package must check clean against the
// snapshot frozen from ok/.
package fleet

// WireVersion is unchanged.
const WireVersion = 1

// Snapshot puts the same three fields on the wire as in ok/.
type Snapshot struct {
	Version int `json:"version"`
	Identity
	*Cells
}

// Identity is inlined into Snapshot.
type Identity struct {
	MemberID string `json:"member_id"`
}

// Cells is inlined into Snapshot through a pointer.
type Cells struct {
	Stalls []StallCounter `json:"stalls,omitempty"`
}

// StallCounter is byte-for-byte the ok/ shape.
type StallCounter struct {
	Service string `json:"service"`
	Cause   string `json:"cause"`
	Count   uint64 `json:"count"`
}
