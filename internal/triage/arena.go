package triage

// Arena recycles flow ring backings. In triage mode the per-flow
// rings dominate the monitor's heap, and short-lived flows would
// otherwise allocate a fresh ring ladder (16, 32, … RingCap slots)
// each, churning the GC at connection rate. A shard hands its Arena
// to every Flow it creates and calls Release when the flow closes;
// the next flow's grow reuses the returned backing instead of
// allocating.
//
// Not safe for concurrent use: each live shard owns exactly one
// Arena, mirroring the ownership rule for Flow itself.
type Arena struct {
	// free holds returned backings keyed by capacity. Rings grow
	// through a fixed ladder of sizes, so exact-size reuse hits
	// almost always.
	free map[int][][]slot
	held int
}

// arenaMaxHeld bounds the total slices an Arena retains so a burst of
// closed flows cannot pin memory forever; beyond it, Release lets the
// GC take the backing.
const arenaMaxHeld = 256

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][][]slot)}
}

// get returns a backing of exactly n slots, recycled when available.
// Returned slots are zeroed (put clears them), so a recycled ring is
// indistinguishable from a fresh one.
func (a *Arena) get(n int) []slot {
	if a != nil {
		if l := a.free[n]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			a.free[n] = l[:len(l)-1]
			a.held--
			return s
		}
	}
	return make([]slot, n)
}

// put hands a backing back for reuse. Slots are cleared so no flow
// history leaks into the next owner.
func (a *Arena) put(s []slot) {
	if a == nil || len(s) == 0 || a.held >= arenaMaxHeld {
		return
	}
	clear(s)
	a.free[len(s)] = append(a.free[len(s)], s)
	a.held++
}

// NewFlowIn returns a fast-path tracker whose ring backings come from
// and return to a (which may be nil, degrading to NewFlow behavior).
func NewFlowIn(cfg Config, a *Arena) *Flow {
	f := NewFlow(cfg)
	f.arena = a
	return f
}

// Release returns the flow's ring to its arena. The flow must not be
// used afterwards; the live monitor calls this when it evicts a flow.
func (f *Flow) Release() {
	if f.ring != nil {
		f.arena.put(f.ring)
		f.ring = nil
	}
}
