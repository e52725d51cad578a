package triage

// Arena recycles ring chunks. In triage mode the per-flow rings
// dominate the monitor's heap, and short-lived flows would otherwise
// allocate fresh chunks each, churning the GC at connection rate. A
// shard hands its Arena to every Flow it creates and calls Release
// when the flow closes; the next flow's rings reuse the returned
// chunks instead of allocating. Every ring is made of one chunk size,
// so the arena is a single free list, linked through the chunks.
//
// Not safe for concurrent use: each live shard owns exactly one
// Arena, mirroring the ownership rule for Flow itself.
type Arena struct {
	free *chunk
	held int
}

// arenaMaxHeld bounds the chunks an Arena retains to 768 KB, so a
// burst of closed flows cannot pin memory forever; beyond it, Release
// lets the GC take the chunk.
const arenaMaxHeld = 768 << 10 / chunkBytes

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// get returns an empty chunk, recycled when available (put clears
// them), so a recycled ring is indistinguishable from a fresh one.
func (a *Arena) get() *chunk {
	if a == nil || a.free == nil {
		return new(chunk)
	}
	c := a.free
	a.free = c.next
	a.held--
	c.next = nil
	return c
}

// put hands a chunk back for reuse, cleared so no flow history leaks
// into the next owner.
func (a *Arena) put(c *chunk) {
	if a == nil || a.held >= arenaMaxHeld {
		return
	}
	c.reset(a.free)
	a.free = c
	a.held++
}

// NewFlowIn returns a fast-path tracker for an analyzer at
// threshold multiplier tau, whose ring chunks come from and return to
// a (nil means plain allocation). tau must be the promoted analyzer's,
// or the gap threshold no longer lower-bounds its stall threshold.
func NewFlowIn(cfg Config, tau float64, a *Arena) *Flow {
	return &Flow{ringCap: cfg.WithDefaults().RingCap, tau: tau, arena: a}
}

// Release returns the flow's ring chunks to its arena. The flow must
// not be used afterwards; the live monitor calls this when it evicts a
// flow.
func (f *Flow) Release() {
	for c := f.front; c != nil; {
		next := c.next
		f.arena.put(c)
		c = next
	}
	if f.spare != nil {
		f.arena.put(f.spare)
	}
	f.front, f.tail, f.spare, f.cur = nil, nil, nil, nil
}
