package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
)

// DefaultPushInterval is how often a member snapshots and pushes.
const DefaultPushInterval = 5 * time.Second

// MemberConfig configures a Member.
type MemberConfig struct {
	// ID names this member to the head; required, must be stable
	// across restarts of the same host so the head can track
	// incarnations.
	ID string
	// Head is the head's base URL, e.g. "http://head:7077".
	Head string
	// Monitor is the local monitor being exported. Required.
	Monitor *live.Monitor
	// PushInterval overrides DefaultPushInterval when positive.
	PushInterval time.Duration
	// Client overrides the default HTTP client (10s timeout).
	Client *http.Client
}

// Member wires a local live.Monitor to a fleet head: it registers for
// an epoch, pushes cumulative snapshots on a ticker, applies config
// staged from push responses between ingest batches, and optionally
// samples flows down before they reach the monitor.
//
// Protocol methods (Register, Push, Run, Close) serialize on an
// internal mutex; the ingest path (IngestBatch, WrapIngest) never
// takes it.
type Member struct {
	id       string
	head     string
	mon      *live.Monitor
	interval time.Duration
	client   *http.Client

	// pending is the config staged from the last head response,
	// consumed (and applied) at the next ingest batch boundary —
	// config never changes analyzer behavior mid-batch.
	pending atomic.Pointer[ConfigUpdate]
	// cfgVersion is the version of the last APPLIED config.
	cfgVersion atomic.Uint64
	// sampleOneIn keeps 1 flow in N when > 1.
	sampleOneIn atomic.Int64

	sampledOut  atomic.Uint64
	unknownKeys atomic.Uint64
	bytesPushed atomic.Uint64

	batchMu sync.Mutex
	// batches summarizes post-sampling ingest batch sizes. guarded by batchMu
	batches stats.Summary

	mu sync.Mutex
	// epoch is the head-assigned incarnation; 0 = never registered. guarded by mu
	epoch uint64
	// seq is the last sequence number used. guarded by mu
	seq uint64
	// base is what this epoch's pushes report their counters relative
	// to, so the head never double-counts what an old epoch retired:
	// nil for the first epoch, acked from every re-registration on.
	// guarded by mu
	base *Counters
	// acked is the raw cumulative counters (monitor plus member-owned)
	// of the last push the head accepted — exactly what the head holds
	// of this member. Rebasing on it rather than on the state at
	// re-registration means records ingested while the head could not
	// hear this member (partition, expiry) reach the new epoch instead
	// of being lost. guarded by mu
	acked *Counters
	// digest accumulates stall events drained from the monitor but not
	// yet delivered by an accepted push — a failed push keeps them, so
	// transient head trouble loses no events; the next accepted push
	// (under its fresh seq) carries them exactly once. Bounded at
	// MaxDigestEvents. guarded by mu
	digest []StallEvent
	// digestDropped counts events past the digest bound since the last
	// delivered push. guarded by mu
	digestDropped uint64
}

// NewMember builds a Member. It does not contact the head until
// Register or Run.
func NewMember(cfg MemberConfig) (*Member, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: member needs an ID")
	}
	if cfg.Head == "" {
		return nil, fmt.Errorf("fleet: member needs a head URL")
	}
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("fleet: member needs a monitor")
	}
	if cfg.PushInterval <= 0 {
		cfg.PushInterval = DefaultPushInterval
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Member{
		id:       cfg.ID,
		head:     cfg.Head,
		mon:      cfg.Monitor,
		interval: cfg.PushInterval,
		client:   cfg.Client,
	}, nil
}

// Register obtains a (fresh) epoch from the head and stages any
// config it hands down.
func (mb *Member) Register(ctx context.Context) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.registerLocked(ctx)
}

func (mb *Member) registerLocked(ctx context.Context) error {
	var resp RegisterResponse
	err := mb.post(ctx, "/fleet/register", RegisterRequest{Version: WireVersion, MemberID: mb.id}, &resp)
	if err != nil {
		return fmt.Errorf("fleet: register: %w", err)
	}
	if resp.Epoch == 0 {
		return fmt.Errorf("fleet: register: head assigned epoch 0")
	}
	if mb.epoch != 0 {
		// Re-registration within the same process: the old epoch counts
		// up to its last accepted push, so this one starts there. Only
		// the batch-size summary, which cannot be differenced, starts
		// over.
		mb.base = mb.acked
		mb.batchMu.Lock()
		mb.batches = stats.Summary{}
		mb.batchMu.Unlock()
	}
	mb.epoch = resp.Epoch
	mb.seq = 0
	if resp.Config != nil {
		mb.pending.Store(resp.Config)
	}
	return nil
}

// Push snapshots the monitor and pushes to the head. A stale-epoch or
// unknown-member rejection triggers one re-register and retry, which
// heals head restarts and expiry evictions transparently. Any config
// in the response is staged for the next ingest batch.
func (mb *Member) Push(ctx context.Context) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.pushLocked(ctx, false, true)
}

func (mb *Member) pushLocked(ctx context.Context, final, mayReregister bool) error {
	if mb.epoch == 0 {
		if !mayReregister {
			return fmt.Errorf("fleet: push before register")
		}
		if err := mb.registerLocked(ctx); err != nil {
			return err
		}
	}
	snap, raw := mb.snapshotLocked()
	mb.seq++
	snap.Seq = mb.seq
	snap.Final = final

	body, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("fleet: push: %w", err)
	}
	var resp PushResponse
	if err := mb.postBytes(ctx, "/fleet/push", body, &resp); err != nil {
		return fmt.Errorf("fleet: push: %w", err)
	}
	if !resp.OK {
		if mayReregister && (resp.Error == ErrStaleEpoch || resp.Error == ErrUnknownMember) {
			if err := mb.registerLocked(ctx); err != nil {
				return err
			}
			return mb.pushLocked(ctx, final, false)
		}
		return fmt.Errorf("fleet: push rejected: %s", resp.Error)
	}
	mb.bytesPushed.Add(uint64(len(body)))
	mb.acked = &raw
	// The head has the digest now; start the next interval empty.
	mb.digest = nil
	mb.digestDropped = 0
	if resp.Config != nil {
		mb.pending.Store(resp.Config)
	}
	return nil
}

// snapshotLocked builds the wire snapshot for the current epoch — the
// monitor's and the member's cumulative counters rebased on the epoch
// baseline — and returns the raw counters alongside, for acked.
// Seq/Final are the caller's.
func (mb *Member) snapshotLocked() (Snapshot, Counters) {
	ls := mb.mon.Snapshot()
	snap := snapshotOf(&ls)
	snap.SampledOut = mb.sampledOut.Load()
	snap.UnknownConfigKeys = mb.unknownKeys.Load()
	mb.batchMu.Lock()
	snap.IngestBatchSizes = mb.batches.State()
	mb.batchMu.Unlock()
	raw := snap.Counters
	if mb.base != nil {
		snap.Counters = raw.Sub(mb.base)
	}
	snap.MemberID = mb.id
	snap.Epoch = mb.epoch
	snap.ConfigVersion = mb.cfgVersion.Load()
	mb.drainDigestLocked()
	snap.Events = mb.digest
	snap.EventsDropped = mb.digestDropped
	return snap, raw
}

// drainDigestLocked moves the monitor's digested stall closes into
// the member's pending event buffer, keeping the first
// MaxDigestEvents and counting the rest — the same first-K sampling
// bound the monitor applies per drain interval.
func (mb *Member) drainDigestLocked() {
	evs, dropped := mb.mon.DrainStallDigest()
	mb.digestDropped += dropped
	for _, e := range evs {
		if len(mb.digest) >= MaxDigestEvents {
			mb.digestDropped++
			continue
		}
		mb.digest = append(mb.digest, StallEvent{
			TimeMS:     e.At.UnixMilli(),
			Service:    e.Stall.Service,
			Cause:      e.Stall.Stall.Cause.String(),
			DurationMS: float64(e.Stall.Stall.Duration) / float64(time.Millisecond),
			FlowHash:   flowHash(e.Stall.FlowID),
		})
	}
}

// Snapshot builds (without pushing) the snapshot the next push would
// carry, minus its sequence number. For tests and local inspection.
func (mb *Member) Snapshot() Snapshot {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	snap, _ := mb.snapshotLocked()
	return snap
}

// Run registers and then pushes on the configured interval until ctx
// is canceled. Transient push errors are tolerated: cumulative
// snapshots mean the next success heals any gap.
func (mb *Member) Run(ctx context.Context) error {
	if err := mb.Register(ctx); err != nil {
		return err
	}
	tick := time.NewTicker(mb.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			_ = mb.Push(ctx)
		}
	}
}

// Close shuts the monitor down (settling every flow into the
// aggregates) and sends the final push, after which the head retires
// this epoch. The member can register again afterwards.
func (mb *Member) Close(ctx context.Context) error {
	mb.mon.Close()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.pushLocked(ctx, true, true)
}

// IngestBatch applies any staged config, samples the batch, and feeds
// it to the monitor, blocking until the records are queued.
func (mb *Member) IngestBatch(evs []trace.RecordEvent) {
	mb.mon.IngestBatchWait(mb.prepareBatch(evs))
}

// WrapIngest decorates a monitor ingest function with the member's
// batch-boundary duties.
func (mb *Member) WrapIngest(fn func([]trace.RecordEvent)) func([]trace.RecordEvent) {
	return func(evs []trace.RecordEvent) { fn(mb.prepareBatch(evs)) }
}

// prepareBatch does the batch-boundary duties — staged config first,
// then flow sampling, then batch-size accounting — and returns what is kept.
func (mb *Member) prepareBatch(evs []trace.RecordEvent) []trace.RecordEvent {
	mb.applyPending()
	kept := mb.sampleBatch(evs)
	mb.batchMu.Lock()
	mb.batches.Add(float64(len(kept)))
	mb.batchMu.Unlock()
	return kept
}

// applyPending applies the staged config update, if any. Known keys
// map onto the monitor's runtime knobs; unknown keys — and known keys
// with values of the wrong shape — are counted and skipped, so a
// newer head never breaks an older member.
func (mb *Member) applyPending() {
	cu := mb.pending.Swap(nil)
	if cu == nil {
		return
	}
	for k, v := range cu.Settings {
		ok := false
		switch k {
		case SettingSampleOneIn:
			var n int
			if n, ok = asInt(v); ok {
				// Values the uint32 flow hash cannot spread over are
				// rejected like malformed ones: a negative N is
				// meaningless, and anything above 2^32-1 would sample
				// out essentially everything (or, as a multiple of
				// 2^32, truncate to a zero modulus).
				if n < 0 || int64(n) > math.MaxUint32 {
					ok = false
				} else {
					mb.sampleOneIn.Store(int64(n))
				}
			}
		case SettingMaxRecordsPerFlow:
			var n int
			if n, ok = asInt(v); ok {
				mb.mon.SetMaxRecordsPerFlow(n)
			}
		case SettingTriage:
			var on bool
			if on, ok = asBool(v); ok {
				ok = mb.mon.SetTriageEnabled(on)
			}
		case SettingFlight:
			var on bool
			if on, ok = asBool(v); ok {
				ok = mb.mon.SetFlightEnabled(on)
			}
		}
		if !ok {
			mb.unknownKeys.Add(1)
		}
	}
	mb.cfgVersion.Store(cu.Version)
}

// sampleBatch drops flows hashed out by the sample_one_in setting.
// Sampling is flow-granular — every record of a flow shares its fate —
// so kept flows are still analyzed whole.
func (mb *Member) sampleBatch(evs []trace.RecordEvent) []trace.RecordEvent {
	n := mb.sampleOneIn.Load()
	if n <= 1 {
		return evs
	}
	kept := evs[:0:len(evs)]
	dropped := uint64(0)
	for _, ev := range evs {
		if uint64(flowHash(ev.FlowID))%uint64(n) == 0 {
			kept = append(kept, ev)
		} else {
			dropped++
		}
	}
	if dropped > 0 {
		mb.sampledOut.Add(dropped)
	}
	return kept
}

// flowHash is FNV-1a over the flow ID, allocation-free (the sampler
// sits on the ingest hot path).
func flowHash(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// MemberStats is the member's own accounting, for tests and tapod's
// report.
type MemberStats struct {
	Epoch             uint64 `json:"epoch"`
	Seq               uint64 `json:"seq"`
	ConfigVersion     uint64 `json:"config_version"`
	SampledOut        uint64 `json:"records_sampled_out"`
	UnknownConfigKeys uint64 `json:"unknown_config_keys"`
	BytesPushed       uint64 `json:"bytes_pushed"`
}

// Stats snapshots the member's counters.
func (mb *Member) Stats() MemberStats {
	mb.mu.Lock()
	epoch, seq := mb.epoch, mb.seq
	mb.mu.Unlock()
	return MemberStats{
		Epoch:             epoch,
		Seq:               seq,
		ConfigVersion:     mb.cfgVersion.Load(),
		SampledOut:        mb.sampledOut.Load(),
		UnknownConfigKeys: mb.unknownKeys.Load(),
		BytesPushed:       mb.bytesPushed.Load(),
	}
}

// post marshals req and decodes the response into out.
func (mb *Member) post(ctx context.Context, path string, req any, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return mb.postBytes(ctx, path, body, out)
}

func (mb *Member) postBytes(ctx context.Context, path string, body []byte, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, mb.head+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := mb.client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if err != nil {
		return err
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", hresp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// asInt accepts the integer shapes a JSON decode can produce.
func asInt(v any) (int, bool) {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) {
			return int(x), true
		}
	case int:
		return x, true
	case int64:
		return int(x), true
	}
	return 0, false
}

// asBool accepts booleans and their common string spellings ("on",
// "off", …), since tapoctl config presets arrive as strings.
func asBool(v any) (bool, bool) {
	switch x := v.(type) {
	case bool:
		return x, true
	case string:
		switch x {
		case "on", "true", "1":
			return true, true
		case "off", "false", "0":
			return false, true
		}
	}
	return false, false
}
