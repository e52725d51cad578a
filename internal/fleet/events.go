package fleet

import (
	"sync"
)

// The event layer: member stall digests and the head's own
// control-plane happenings merge into one bounded ring with monotonic
// IDs, readable two ways — a JSON backlog fetch (?since=) and a live
// SSE stream. The ring is the source of truth; subscribers are
// best-effort fan-out on top of it, so a slow SSE client loses
// liveness, never history (it can always re-fetch by ID).

// Event types, as they appear in Event.Type.
const (
	EventStall         = "stall"          // one member stall close, from a push digest
	EventMemberJoin    = "member_join"    // first registration of a member ID
	EventMemberRestart = "member_restart" // re-registration: old epoch retired
	EventMemberExpired = "member_expired" // member went silent past expiry
	EventMemberFinal   = "member_final"   // member's final push retired its epoch
	EventRejectSpike   = "reject_spike"   // push rejections crossed a milestone
)

// eventRingSize is how many events the head retains. At the default
// digest and push cadence this is minutes of history — enough for a
// dashboard to backfill on load and for tapoctl tail to reconnect
// without a gap.
const eventRingSize = 1024

// rejectSpikeEvery is the rejection-count milestone cadence: the first
// rejection of each code is an event, then every rejectSpikeEvery-th
// after, so a storm surfaces without flooding the ring.
const rejectSpikeEvery = 100

// Event is one entry in the head's merged event stream.
type Event struct {
	// ID is monotonically increasing across the head's lifetime;
	// ?since=ID and SSE Last-Event-ID resume after it.
	ID     uint64 `json:"id"`
	TimeMS int64  `json:"time_ms"`
	Type   string `json:"type"`
	Member string `json:"member,omitempty"`
	// Stall is the digest entry, set when Type == EventStall.
	Stall *StallEvent `json:"stall,omitempty"`
	// Detail is the human-readable tail: epoch for lifecycle events,
	// code and count for reject spikes.
	Detail string `json:"detail,omitempty"`
}

// EventsResponse is the /fleet/events payload.
type EventsResponse struct {
	Events []Event `json:"events"`
	// Next is the ID to pass as ?since= to continue from here.
	Next uint64 `json:"next"`
	// Dropped counts ring overwrites since head start — events that can
	// no longer be fetched by ID.
	Dropped uint64 `json:"dropped,omitempty"`
}

// eventRing is the bounded event store plus subscriber fan-out. It has
// its own mutex, below the Head's in lock order: Head methods publish
// while holding the Head mutex, ring methods never call back into the
// Head.
type eventRing struct {
	mu sync.Mutex
	// buf is the ring storage; ID i (when still retained) lives at
	// (i-1)%eventRingSize. guarded by mu
	buf []Event
	// nextID is the next ID to assign, starting at 1. guarded by mu
	nextID uint64
	// dropped counts overwritten events. guarded by mu
	dropped uint64
	// subs holds live subscriber channels. guarded by mu
	subs map[chan Event]struct{}
	// lagged counts events a subscriber's buffer had no room for.
	// guarded by mu
	lagged uint64

	// closeOnce makes Close idempotent; it is the only writer that
	// ever closes the closed channel.
	closeOnce sync.Once
	// closed broadcasts head shutdown to every stream. The channel
	// reference is immutable after construction; closing it goes
	// through closeOnce, so no mutex is involved.
	closed chan struct{}
}

func newEventRing() *eventRing {
	return &eventRing{
		buf:    make([]Event, 0, eventRingSize),
		nextID: 1,
		subs:   map[chan Event]struct{}{},
		closed: make(chan struct{}),
	}
}

// publish assigns the event its ID, stores it, and fans it out to
// subscribers without blocking: a subscriber whose buffer is full
// misses the live delivery (counted) and catches up by ID later.
func (er *eventRing) publish(ev Event) {
	er.mu.Lock()
	defer er.mu.Unlock()
	ev.ID = er.nextID
	er.nextID++
	if len(er.buf) < eventRingSize {
		er.buf = append(er.buf, ev)
	} else {
		er.buf[(ev.ID-1)%eventRingSize] = ev
		er.dropped++
	}
	for ch := range er.subs {
		select {
		case ch <- ev:
		default:
			er.lagged++
		}
	}
}

// since returns the retained events with ID > after, oldest first, and
// the next cursor.
func (er *eventRing) since(after uint64) EventsResponse {
	er.mu.Lock()
	defer er.mu.Unlock()
	resp := EventsResponse{Events: []Event{}, Next: er.nextID - 1, Dropped: er.dropped}
	n := len(er.buf)
	if n == 0 {
		return resp
	}
	lo := er.nextID - uint64(n) // oldest retained ID
	if after+1 > lo {
		lo = after + 1
	}
	for id := lo; id < er.nextID; id++ {
		resp.Events = append(resp.Events, er.buf[(id-1)%eventRingSize])
	}
	return resp
}

// subscribe registers a live channel, returning it with the backlog
// after `after` and a cancel func. The channel is buffered; the caller
// drains it until cancel (or head close).
func (er *eventRing) subscribe(after uint64) (backlog []Event, ch chan Event, cancel func()) {
	er.mu.Lock()
	defer er.mu.Unlock()
	backlog = er.sinceLocked(after)
	ch = make(chan Event, 64)
	er.subs[ch] = struct{}{}
	return backlog, ch, func() {
		er.mu.Lock()
		defer er.mu.Unlock()
		delete(er.subs, ch)
	}
}

// sinceLocked is since without the response envelope. guarded by mu
// (caller holds it).
func (er *eventRing) sinceLocked(after uint64) []Event {
	n := len(er.buf)
	if n == 0 {
		return nil
	}
	lo := er.nextID - uint64(n)
	if after+1 > lo {
		lo = after + 1
	}
	var out []Event
	for id := lo; id < er.nextID; id++ {
		out = append(out, er.buf[(id-1)%eventRingSize])
	}
	return out
}

// close broadcasts shutdown to every stream. Idempotent.
func (er *eventRing) close() {
	er.closeOnce.Do(func() { close(er.closed) })
}

// Events returns the retained events with ID > since, oldest first.
func (h *Head) Events(since uint64) EventsResponse {
	return h.events.since(since)
}

// Close terminates every live event stream (SSE handlers select on
// the ring's closed channel), so http.Server.Shutdown can finish.
// The head remains usable for non-streaming calls after Close.
func (h *Head) Close() {
	h.events.close()
}

// Sweep runs one expiry sweep now — tapoctl calls it on shutdown so
// members that died during the run are retired (and their expiry
// events published) before the final state is scraped.
func (h *Head) Sweep() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sweepLocked(h.clock())
}

// publishLocked stamps and publishes one control-plane event. Callers
// hold the Head mutex; the ring's own lock nests below it.
func (h *Head) publishLocked(ev Event) {
	if ev.TimeMS == 0 {
		ev.TimeMS = h.clock().UnixMilli()
	}
	h.events.publish(ev)
}

// ingestDigestLocked publishes a push's stall-event digest. The digest
// is bounded member-side at MaxDigestEvents; the head re-truncates and
// counts anyway, because the wire is untrusted.
func (h *Head) ingestDigestLocked(snap *Snapshot) {
	evs := snap.Events
	if len(evs) > MaxDigestEvents {
		h.counters.digestTruncated += uint64(len(evs) - MaxDigestEvents)
		evs = evs[:MaxDigestEvents]
	}
	h.counters.stallEvents += uint64(len(evs))
	h.counters.digestDropped += snap.EventsDropped
	// se is a copy per iteration, so the ring never aliases the
	// caller's snapshot.
	for _, se := range evs {
		h.events.publish(Event{
			TimeMS: se.TimeMS, Type: EventStall, Member: snap.MemberID, Stall: &se,
		})
	}
}

// eventStats reports the ring's fan-out accounting for HeadStats.
func (er *eventRing) stats() (published, dropped, lagged uint64, subscribers int) {
	er.mu.Lock()
	defer er.mu.Unlock()
	return er.nextID - 1, er.dropped, er.lagged, len(er.subs)
}
