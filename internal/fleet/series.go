package fleet

import (
	"time"

	"tcpstall/internal/stats"
)

// The time-series layer: on every accepted push the head differences
// the member's cumulative snapshot against its previous accepted one
// and folds the delta into bounded, step-aligned bucket rings — fleet
// wide, per service, and per member. The rings answer "what is the
// stall rate RIGHT NOW and over the last few minutes" without an
// external scraper, which is the whole point of cumulative wire
// counters: the head can reconstruct rates locally and losslessly.
//
// Differencing is epoch-aware by construction. A member's baseline
// (ms.last) is nil at epoch start — retireLocked clears it on restart,
// expiry, and final push — so the first snapshot of a fresh epoch is
// differenced against zero and a restart's rebase-to-zero folds in as
// the new epoch's own small cumulative, never as a negative delta.
// Within an epoch, cumulative counters only grow (seq-gated replace of
// a monotone counter set), so deltas are non-negative; Counters.Sub
// clamps at zero as belt and braces against a malformed payload that
// slipped past fold validation.

// Series geometry defaults. ~10 minutes of 5-second buckets.
const (
	DefaultSeriesStep    = 5 * time.Second
	DefaultSeriesBuckets = 120

	// maxSeriesKeys bounds each keyed ring family (services, members).
	// Past it, new keys fold into the fleet ring only and are counted,
	// so a service-cardinality explosion on one member cannot grow head
	// memory without bound.
	maxSeriesKeys = 256
)

// seriesStore holds every ring. Single-owner: all methods are called
// by Head methods holding the Head mutex.
type seriesStore struct {
	// step and size are fixed at construction; immutable thereafter.
	step time.Duration
	size int

	// fleet is the whole-fleet ring. guarded by Head.mu
	fleet *seriesRing
	// services and members are the keyed ring families, bounded at
	// maxSeriesKeys each. guarded by Head.mu
	services map[string]*seriesRing
	members  map[string]*seriesRing
	// droppedKeys counts folds that wanted a new keyed ring past
	// maxSeriesKeys (their deltas still reach the fleet ring).
	// guarded by Head.mu
	droppedKeys uint64
}

func newSeriesStore(step time.Duration, size int) *seriesStore {
	if step <= 0 {
		step = DefaultSeriesStep
	}
	if size <= 0 {
		size = DefaultSeriesBuckets
	}
	return &seriesStore{
		step:     step,
		size:     size,
		fleet:    newSeriesRing(size),
		services: map[string]*seriesRing{},
		members:  map[string]*seriesRing{},
	}
}

// seriesRing is one bounded bucket ring, indexed by step epoch the
// same way live's rollWindow is: bucket i holds step epoch e where
// e%len == i, and a bucket whose stored epoch is stale is reset on
// first touch.
type seriesRing struct {
	buckets []seriesBucket
}

func newSeriesRing(size int) *seriesRing {
	return &seriesRing{buckets: make([]seriesBucket, size)}
}

// seriesBucket accumulates one step interval's deltas.
type seriesBucket struct {
	used  bool
	epoch int64

	pushes     uint64
	records    uint64
	recordsFed uint64
	stalls     uint64
	stallTime  time.Duration
	causes     map[string]uint64
	// durs holds the interval's stall-duration deltas for quantiles.
	// Only fleet and member rings carry it — the wire histogram is
	// member-level, so per-service duration attribution is impossible.
	durs *stats.Histogram
}

// bucket returns the ring bucket for step epoch ep, resetting it if it
// last held an older interval.
func (r *seriesRing) bucket(ep int64) *seriesBucket {
	b := &r.buckets[ep%int64(len(r.buckets))]
	if !b.used || b.epoch != ep {
		*b = seriesBucket{used: true, epoch: ep}
	}
	return b
}

// fold differences cur against prev and folds the delta into the
// fleet, member, and per-service rings at the bucket holding now. prev
// == nil means "epoch just started": the baseline is zero and cur's
// cumulative state IS the delta.
func (ss *seriesStore) fold(now time.Time, prev, cur *Snapshot) {
	d := cur.Counters
	if prev != nil {
		d = cur.Sub(&prev.Counters)
	}
	ep := now.UnixNano() / int64(ss.step)

	var stalls uint64
	var stallTime time.Duration
	for _, sc := range d.Stalls {
		stalls += sc.Count
		stallTime += sc.Time
	}
	durs, err := stats.HistogramFromState(d.DurationsMS)
	if err != nil || durs.N() == 0 {
		durs = nil
	}

	causes := func(b *seriesBucket, cells []StallCounter) {
		for _, sc := range cells {
			if sc.Count > 0 {
				if b.causes == nil {
					b.causes = map[string]uint64{}
				}
				b.causes[sc.Cause] += sc.Count
			}
		}
	}
	apply := func(b *seriesBucket) {
		b.pushes++
		b.records += d.Ingested
		b.recordsFed += d.RecordsFed
		b.stalls += stalls
		b.stallTime += stallTime
		causes(b, d.Stalls)
		if durs != nil {
			if b.durs == nil {
				b.durs = stats.NewHistogram(durs.Bounds())
			}
			b.durs.Merge(durs)
		}
	}

	apply(ss.fleet.bucket(ep))
	if r := ss.ring(ss.members, cur.MemberID); r != nil {
		apply(r.bucket(ep))
	}
	// The cells are sorted, so each service's cells are one run.
	for cells := d.Stalls; len(cells) > 0; {
		n := 1
		for n < len(cells) && cells[n].Service == cells[0].Service {
			n++
		}
		run := cells[:n]
		cells = cells[n:]
		r := ss.ring(ss.services, run[0].Service)
		if r == nil {
			continue
		}
		b := r.bucket(ep)
		b.pushes++
		for _, sc := range run {
			b.stalls += sc.Count
			b.stallTime += sc.Time
		}
		causes(b, run)
	}
}

// ring fetches or creates the keyed ring, enforcing the cardinality
// bound.
func (ss *seriesStore) ring(m map[string]*seriesRing, key string) *seriesRing {
	if key == "" {
		return nil
	}
	r := m[key]
	if r == nil {
		if len(m) >= maxSeriesKeys {
			ss.droppedKeys++
			return nil
		}
		r = newSeriesRing(ss.size)
		m[key] = r
	}
	return r
}

// SeriesPoint is one rendered time-series bucket. Counts are the
// interval's deltas; rates divide by the step.
type SeriesPoint struct {
	TimeMS        int64             `json:"time_ms"`
	Pushes        uint64            `json:"pushes"`
	Stalls        uint64            `json:"stalls"`
	StallSeconds  float64           `json:"stall_seconds"`
	Records       uint64            `json:"records,omitempty"`
	RecordsPerSec float64           `json:"records_per_sec,omitempty"`
	Causes        map[string]uint64 `json:"causes,omitempty"`
	DurP50MS      float64           `json:"dur_p50_ms,omitempty"`
	DurP99MS      float64           `json:"dur_p99_ms,omitempty"`
}

// SeriesResponse is the /fleet/timeseries payload.
type SeriesResponse struct {
	StepS       float64                  `json:"step_s"`
	Buckets     int                      `json:"buckets"`
	Fleet       []SeriesPoint            `json:"fleet,omitempty"`
	Services    map[string][]SeriesPoint `json:"services,omitempty"`
	Members     map[string][]SeriesPoint `json:"members,omitempty"`
	DroppedKeys uint64                   `json:"dropped_series_keys,omitempty"`
}

// render lists a ring's live buckets — those whose interval falls
// inside the retained window ending at now — oldest first, skipping
// empty intervals.
func (ss *seriesStore) render(r *seriesRing, now time.Time) []SeriesPoint {
	if r == nil {
		return nil
	}
	cur := now.UnixNano() / int64(ss.step)
	oldest := cur - int64(ss.size) + 1
	var out []SeriesPoint
	for ep := oldest; ep <= cur; ep++ {
		b := &r.buckets[ep%int64(len(r.buckets))]
		if !b.used || b.epoch != ep {
			continue
		}
		p := SeriesPoint{
			TimeMS:       time.Unix(0, b.epoch*int64(ss.step)).UnixMilli(),
			Pushes:       b.pushes,
			Stalls:       b.stalls,
			StallSeconds: b.stallTime.Seconds(),
			Records:      b.records,
		}
		if b.records > 0 {
			p.RecordsPerSec = float64(b.records) / ss.step.Seconds()
		}
		if len(b.causes) > 0 {
			p.Causes = make(map[string]uint64, len(b.causes))
			for k, n := range b.causes {
				p.Causes[k] = n
			}
		}
		if b.durs != nil && b.durs.N() > 0 {
			p.DurP50MS = b.durs.Quantile(0.5)
			p.DurP99MS = b.durs.Quantile(0.99)
		}
		out = append(out, p)
	}
	return out
}

// TimeSeries renders the head's rings. service narrows the response to
// one service's ring (fleet and member rings are omitted); empty means
// everything. The boolean reports whether the requested service is
// known — callers turn false into a 400.
func (h *Head) TimeSeries(service string) (SeriesResponse, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	h.sweepLocked(now)
	ss := h.series
	resp := SeriesResponse{
		StepS:       ss.step.Seconds(),
		Buckets:     ss.size,
		DroppedKeys: ss.droppedKeys,
	}
	if service != "" {
		r := ss.services[service]
		if r == nil {
			return SeriesResponse{}, false
		}
		resp.Services = map[string][]SeriesPoint{service: ss.render(r, now)}
		return resp, true
	}
	resp.Fleet = ss.render(ss.fleet, now)
	if len(ss.services) > 0 {
		resp.Services = make(map[string][]SeriesPoint, len(ss.services))
		for name, r := range ss.services {
			resp.Services[name] = ss.render(r, now)
		}
	}
	if len(ss.members) > 0 {
		resp.Members = make(map[string][]SeriesPoint, len(ss.members))
		for name, r := range ss.members {
			resp.Members[name] = ss.render(r, now)
		}
	}
	return resp, true
}
