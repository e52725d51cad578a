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

// Series geometry: ~10 minutes of 5-second buckets.
const (
	seriesStep    = 5 * time.Second
	seriesBuckets = 120

	// windowBuckets is how many of the newest fleet-ring buckets
	// Head.Window sums: the last minute, the current bucket included.
	windowBuckets = int64(time.Minute / seriesStep)

	// maxSeriesKeys bounds each keyed ring family (services, members).
	// Past it, new keys fold into the fleet ring only and are counted,
	// so a service-cardinality explosion on one member cannot grow head
	// memory without bound.
	maxSeriesKeys = 256
)

// seriesStore holds every ring. Single-owner: all methods are called
// by Head methods holding the Head mutex.
type seriesStore struct {
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

func newSeriesStore() *seriesStore {
	return &seriesStore{
		fleet:    new(seriesRing),
		services: map[string]*seriesRing{},
		members:  map[string]*seriesRing{},
	}
}

// seriesRing is one bounded bucket ring, indexed by step epoch: bucket
// i holds step epoch e where e%seriesBuckets == i, and a bucket whose
// stored epoch is stale is reset on first touch.
type seriesRing [seriesBuckets]seriesBucket

// seriesBucket accumulates one step interval's deltas.
type seriesBucket struct {
	used  bool
	epoch int64

	pushes  uint64
	records uint64
	// stalls holds the interval's stall-cell deltas, ascending by
	// (service, cause) like the wire cells.
	stalls []StallCounter
	// durs holds the interval's stall-duration deltas for quantiles.
	// Only fleet and member rings carry it — the wire histogram is
	// member-level, so per-service duration attribution is impossible.
	durs *stats.Histogram
}

// bucket returns the ring bucket for step epoch ep, resetting it if it
// last held an older interval.
func (r *seriesRing) bucket(ep int64) *seriesBucket {
	b := r.at(ep)
	if b == nil {
		b = &r[ep%seriesBuckets]
		*b = seriesBucket{used: true, epoch: ep}
	}
	return b
}

// at returns the bucket holding step epoch ep, or nil if the ring
// holds nothing for that interval.
func (r *seriesRing) at(ep int64) *seriesBucket {
	b := &r[ep%seriesBuckets]
	if !b.used || b.epoch != ep {
		return nil
	}
	return b
}

// addStalls folds ascending delta cells into the bucket's cells.
func (b *seriesBucket) addStalls(cells []StallCounter) {
	// Push validated the snapshot's cells ascending and Sub keeps them
	// so, so this cannot fail.
	if fresh, err := freshCells(b.stalls, cells); err == nil {
		b.stalls = mergeCells(b.stalls, cells, fresh)
	}
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
	ep := now.UnixNano() / int64(seriesStep)

	durs, err := stats.HistogramFromState(d.DurationsMS)
	if err != nil || durs.N() == 0 {
		durs = nil
	}
	apply := func(b *seriesBucket) {
		b.pushes++
		b.records += d.Ingested
		b.addStalls(d.Stalls)
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
		b.addStalls(run)
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
		r = new(seriesRing)
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
func (r *seriesRing) render(now time.Time) []SeriesPoint {
	cur := now.UnixNano() / int64(seriesStep)
	var out []SeriesPoint
	for ep := cur - seriesBuckets + 1; ep <= cur; ep++ {
		b := r.at(ep)
		if b == nil {
			continue
		}
		p := SeriesPoint{
			TimeMS:  time.Unix(0, b.epoch*int64(seriesStep)).UnixMilli(),
			Pushes:  b.pushes,
			Records: b.records,
		}
		var stallTime time.Duration
		for _, sc := range b.stalls {
			p.Stalls += sc.Count
			stallTime += sc.Time
			if sc.Count > 0 {
				if p.Causes == nil {
					p.Causes = map[string]uint64{}
				}
				p.Causes[sc.Cause] += sc.Count
			}
		}
		p.StallSeconds = stallTime.Seconds()
		if b.records > 0 {
			p.RecordsPerSec = float64(b.records) / seriesStep.Seconds()
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
		StepS:       seriesStep.Seconds(),
		Buckets:     seriesBuckets,
		DroppedKeys: ss.droppedKeys,
	}
	if service != "" {
		r := ss.services[service]
		if r == nil {
			return SeriesResponse{}, false
		}
		resp.Services = map[string][]SeriesPoint{service: r.render(now)}
		return resp, true
	}
	resp.Fleet = ss.fleet.render(now)
	if len(ss.services) > 0 {
		resp.Services = make(map[string][]SeriesPoint, len(ss.services))
		for name, r := range ss.services {
			resp.Services[name] = r.render(now)
		}
	}
	if len(ss.members) > 0 {
		resp.Members = make(map[string][]SeriesPoint, len(ss.members))
		for name, r := range ss.members {
			resp.Members[name] = r.render(now)
		}
	}
	return resp, true
}
