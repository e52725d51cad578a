package triage

// Arena recycles ring blocks. In triage mode the per-flow rings
// dominate the monitor's heap, and short-lived flows would otherwise
// allocate fresh blocks each, churning the GC at connection rate. A
// shard hands its Arena to every Flow it creates and calls Release
// when the flow closes; the next flow's grow reuses the returned
// blocks instead of allocating. Every ring is made of one block size,
// so the arena is a single free list.
//
// Not safe for concurrent use: each live shard owns exactly one
// Arena, mirroring the ownership rule for Flow itself.
type Arena struct {
	free []*block
}

// arenaMaxHeld bounds the blocks an Arena retains (768 KB) so a burst
// of closed flows cannot pin memory forever; beyond it, Release lets
// the GC take the block.
const arenaMaxHeld = 256

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make([]*block, 0, arenaMaxHeld)}
}

// get returns a zeroed block, recycled when available (put clears
// them), so a recycled ring is indistinguishable from a fresh one.
func (a *Arena) get() *block {
	if a != nil && len(a.free) > 0 {
		b := a.free[len(a.free)-1]
		a.free[len(a.free)-1] = nil
		a.free = a.free[:len(a.free)-1]
		return b
	}
	return new(block)
}

// put hands a block back for reuse, cleared so no flow history leaks
// into the next owner.
func (a *Arena) put(b *block) {
	if a == nil || len(a.free) >= arenaMaxHeld {
		return
	}
	b.reset()
	a.free = append(a.free, b)
}

// NewFlowIn returns a fast-path tracker whose ring blocks come from
// and return to a (which may be nil, degrading to NewFlow behavior).
func NewFlowIn(cfg Config, a *Arena) *Flow {
	f := NewFlow(cfg)
	f.arena = a
	return f
}

// Release returns the flow's ring blocks to its arena and drops its
// SACK side store. The flow must not be used afterwards; the live
// monitor calls this when it evicts a flow.
func (f *Flow) Release() {
	for _, b := range f.blocks {
		f.arena.put(b)
	}
	f.blocks = nil
	f.sacks = nil
}
