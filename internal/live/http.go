package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/stats"
)

// NewHandler exposes a Monitor's metrics and admin planes:
//
//	GET /metrics                 Prometheus text exposition (see writeMetrics)
//	GET /healthz                 liveness — 200 "ok" while the monitor accepts records
//	GET /flows                   JSON list of active flows (?n= limits)
//	GET /flows/{id}              one active flow, 404 when unknown/evicted
//	GET /debug/flows/{id}/trace  the flow's flight-recorder evidence
//	GET /stalls                  JSON ring of the most recent closed stalls (?n= limits)
//	GET /config                  JSON of the effective (defaulted) configuration
func NewHandler(m *Monitor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, m.Snapshot())
		writeRuntimeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.closed.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /flows", func(w http.ResponseWriter, r *http.Request) {
		limit, ok := limitParam(w, r)
		if !ok {
			return
		}
		flows := m.Flows()
		sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
		active := len(flows)
		if limit > 0 && limit < len(flows) {
			flows = flows[:limit]
		}
		writeJSON(w, map[string]any{"active": active, "flows": flows})
	})
	mux.HandleFunc("GET /flows/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Flow(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown flow (never seen, or already evicted)", http.StatusNotFound)
			return
		}
		writeJSON(w, info)
	})
	mux.HandleFunc("GET /debug/flows/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		ft, ok := m.FlowTrace(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown flow (never seen, or already evicted)", http.StatusNotFound)
			return
		}
		writeJSON(w, ft)
	})
	mux.HandleFunc("GET /stalls", func(w http.ResponseWriter, r *http.Request) {
		limit, ok := limitParam(w, r)
		if !ok {
			return
		}
		stalls := m.RecentStalls()
		if limit > 0 && limit < len(stalls) {
			stalls = stalls[len(stalls)-limit:] // newest-biased tail
		}
		out := make([]stallJSON, 0, len(stalls))
		for _, ls := range stalls {
			out = append(out, newStallJSON(ls))
		}
		writeJSON(w, map[string]any{"count": len(out), "stalls": out})
	})
	mux.HandleFunc("GET /config", func(w http.ResponseWriter, r *http.Request) {
		cfg := m.Config()
		out := map[string]any{
			"shards":               cfg.Shards,
			"max_flows":            cfg.MaxFlows,
			"max_records_per_flow": cfg.MaxRecordsPerFlow,
			"idle_timeout":         cfg.IdleTimeout.String(),
			"window":               cfg.Window.String(),
			"window_buckets":       cfg.WindowBuckets,
			"recent_stalls":        cfg.RecentStalls,
			"analysis": map[string]any{
				"tau":        cfg.Analysis.Tau,
				"dup_thresh": cfg.Analysis.DupThresh,
				"init_cwnd":  cfg.Analysis.InitCwnd,
				"init_rto":   cfg.Analysis.InitRTO.String(),
				"min_rto":    cfg.Analysis.MinRTO.String(),
			},
			// The runtime block is the live truth: these values start as
			// the constructed configuration but can be retuned while the
			// monitor runs (a fleet head pushes them via the member's
			// heartbeat responses).
			"runtime": map[string]any{
				"max_records_per_flow": m.MaxRecordsPerFlow(),
				"triage_enabled":       m.TriageEnabled(),
				"flight_enabled":       m.FlightEnabled(),
			},
		}
		if cfg.Triage != nil {
			out["triage"] = map[string]any{
				"ring_cap":     cfg.Triage.RingCap,
				"tau":          cfg.Triage.Tau,
				"min_rto":      cfg.Triage.MinRTO.String(),
				"init_rto":     cfg.Triage.InitRTO.String(),
				"dup_burst":    cfg.Triage.DupBurst,
				"demote_after": cfg.Triage.DemoteAfter.String(),
			}
		}
		writeJSON(w, out)
	})
	return mux
}

// maxLimitParam bounds ?n=: anything past it cannot be a real paging
// request (the flow table itself caps far lower) and is rejected
// rather than silently clamped, so a fat-fingered or adversarial
// value surfaces as a 400 instead of an unbounded-looking query that
// quietly worked.
const maxLimitParam = 1 << 20

// limitParam parses the optional ?n= result cap; on a malformed,
// negative or absurdly large value it writes 400 and reports false.
func limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		http.Error(w, "bad query: n must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	if n > maxLimitParam {
		http.Error(w, "bad query: n exceeds the maximum of 1048576", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// stallJSON flattens a LiveStall for the admin plane. ID is the
// stall's flow-scoped identifier — the same one evidence refs and
// groundtruth grading use.
type stallJSON struct {
	FlowID       string  `json:"flow_id"`
	Service      string  `json:"service,omitempty"`
	ID           int     `json:"id"`
	StartS       float64 `json:"start_s"`
	EndS         float64 `json:"end_s"`
	DurationMS   float64 `json:"duration_ms"`
	Cause        string  `json:"cause"`
	Category     string  `json:"category"`
	RetransCause string  `json:"retrans_cause,omitempty"`
	// Evidence names the flight-recorder entry for this stall
	// (resolve via /debug/flows/{flow_id}/trace); absent when the
	// recorder is disabled.
	Evidence string `json:"evidence,omitempty"`
}

func newStallJSON(ls core.LiveStall) stallJSON {
	sj := stallJSON{
		FlowID:     ls.FlowID,
		Service:    ls.Service,
		ID:         ls.Stall.ID,
		StartS:     ls.Stall.Start.Seconds(),
		EndS:       ls.Stall.End.Seconds(),
		DurationMS: float64(ls.Stall.Duration) / float64(time.Millisecond),
		Cause:      ls.Stall.Cause.String(),
		Category:   core.CategoryOf(ls.Stall.Cause).String(),
	}
	if ls.Stall.Cause == core.CauseTimeoutRetrans {
		sj.RetransCause = ls.Stall.RetransCause.String()
	}
	if ls.Stall.Evidence != nil {
		sj.Evidence = ls.Stall.Evidence.String()
	}
	return sj
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeMetrics renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the monitor stays
// dependency-free. Label sets are emitted in sorted order so scrapes
// are deterministic and diffable.
func writeMetrics(w io.Writer, s Snapshot) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP tapod_uptime_seconds Time since the monitor started.\n")
	p("# TYPE tapod_uptime_seconds gauge\n")
	p("tapod_uptime_seconds %s\n", fnum(s.Uptime.Seconds()))

	p("# HELP tapod_records_ingested_total Records accepted into shard queues.\n")
	p("# TYPE tapod_records_ingested_total counter\n")
	p("tapod_records_ingested_total %d\n", s.Ingested)

	p("# HELP tapod_records_dropped_total Records discarded, by reason.\n")
	p("# TYPE tapod_records_dropped_total counter\n")
	p("tapod_records_dropped_total{reason=%q} %d\n", "ring_full", s.RingDrops)
	p("tapod_records_dropped_total{reason=%q} %d\n", "flow_record_cap", s.RecordsCapDrop)

	p("# HELP tapod_shard_ring_drops_total Records shed at each shard's full intake queue.\n")
	p("# TYPE tapod_shard_ring_drops_total counter\n")
	for i, n := range s.ShardRingDrops {
		p("tapod_shard_ring_drops_total{shard=\"%d\"} %d\n", i, n)
	}

	p("# HELP tapod_flight_drops_total Flight-recorder ring truncation (settled at flow eviction), by kind.\n")
	p("# TYPE tapod_flight_drops_total counter\n")
	p("tapod_flight_drops_total{kind=%q} %d\n", "event", s.FlightEventDrops)
	p("tapod_flight_drops_total{kind=%q} %d\n", "evidence", s.FlightEvidenceDrops)

	p("# HELP tapod_records_fed_total Records fed into per-flow analyzers.\n")
	p("# TYPE tapod_records_fed_total counter\n")
	p("tapod_records_fed_total %d\n", s.RecordsFed)

	p("# HELP tapod_triage_records_total Records handled by the triage fast path.\n")
	p("# TYPE tapod_triage_records_total counter\n")
	p("tapod_triage_records_total %d\n", s.TriageFastRecords)

	p("# HELP tapod_triage_promotions_total Flow promotions to full analysis, by symptom.\n")
	p("# TYPE tapod_triage_promotions_total counter\n")
	for _, sym := range sortedKeys(s.TriagePromotions) {
		p("tapod_triage_promotions_total{symptom=%q} %d\n", sym, s.TriagePromotions[sym])
	}

	p("# HELP tapod_triage_repromotions_total Promotions that re-attached a parked analyzer.\n")
	p("# TYPE tapod_triage_repromotions_total counter\n")
	p("tapod_triage_repromotions_total %d\n", s.TriageRepromotions)

	p("# HELP tapod_triage_demotions_total Promoted flows parked after staying symptom-free.\n")
	p("# TYPE tapod_triage_demotions_total counter\n")
	p("tapod_triage_demotions_total %d\n", s.TriageDemotions)

	p("# HELP tapod_triage_truncated_promotions_total Promotions whose symptom evidence predated the record ring (replayed from ring start).\n")
	p("# TYPE tapod_triage_truncated_promotions_total counter\n")
	p("tapod_triage_truncated_promotions_total %d\n", s.TriageTruncatedPromotions)

	p("# HELP tapod_triage_promoted_flows Live flows currently promoted to full analysis.\n")
	p("# TYPE tapod_triage_promoted_flows gauge\n")
	p("tapod_triage_promoted_flows %d\n", s.PromotedFlows)

	p("# HELP tapod_triage_parked_flows Live flows holding a demoted (parked) analyzer.\n")
	p("# TYPE tapod_triage_parked_flows gauge\n")
	p("tapod_triage_parked_flows %d\n", s.ParkedFlows)

	p("# HELP tapod_flows_active Flows currently tracked.\n")
	p("# TYPE tapod_flows_active gauge\n")
	p("tapod_flows_active %d\n", s.ActiveFlows)

	p("# HELP tapod_flows_seen_total Flows ever admitted.\n")
	p("# TYPE tapod_flows_seen_total counter\n")
	p("tapod_flows_seen_total %d\n", s.FlowsSeen)

	p("# HELP tapod_flows_evicted_total Flows evicted, by reason.\n")
	p("# TYPE tapod_flows_evicted_total counter\n")
	for _, r := range sortedKeys(s.FlowsEvicted) {
		p("tapod_flows_evicted_total{reason=%q} %d\n", r, s.FlowsEvicted[r])
	}

	p("# HELP tapod_flows_truncated_total Flows that hit the per-flow record cap.\n")
	p("# TYPE tapod_flows_truncated_total counter\n")
	p("tapod_flows_truncated_total %d\n", s.FlowsTruncated)

	p("# HELP tapod_stalls_total Closed stalls by service and Figure-5 cause.\n")
	p("# TYPE tapod_stalls_total counter\n")
	forEachCause(s.StallCount, func(k CauseKey) {
		p("tapod_stalls_total{service=%q,cause=%q,category=%q} %d\n",
			k.Service, k.Cause.String(), core.CategoryOf(k.Cause).String(), s.StallCount[k])
	})

	p("# HELP tapod_stall_seconds_total Total stalled seconds by service and cause.\n")
	p("# TYPE tapod_stall_seconds_total counter\n")
	forEachCause(s.StallSeconds, func(k CauseKey) {
		p("tapod_stall_seconds_total{service=%q,cause=%q} %s\n",
			k.Service, k.Cause.String(), fnum(s.StallSeconds[k]))
	})

	writeHistogram(p, "tapod_stall_duration_ms", "Closed stall durations in milliseconds.", s.DurationsMS)

	p("# HELP tapod_retrans_stalls_total Retransmission stalls by Table-5 sub-cause (settled at eviction).\n")
	p("# TYPE tapod_retrans_stalls_total counter\n")
	for _, c := range sortedRetrans(s.RetransCount) {
		p("tapod_retrans_stalls_total{subcause=%q} %d\n", c.String(), s.RetransCount[c])
	}

	p("# HELP tapod_retrans_stall_seconds_total Retransmission stall seconds by Table-5 sub-cause.\n")
	p("# TYPE tapod_retrans_stall_seconds_total counter\n")
	for _, c := range sortedRetrans(s.RetransSeconds) {
		p("tapod_retrans_stall_seconds_total{subcause=%q} %s\n", c.String(), fnum(s.RetransSeconds[c]))
	}

	p("# HELP tapod_window_stalls Stalls closed inside the rolling window, by service and cause.\n")
	p("# TYPE tapod_window_stalls gauge\n")
	forEachCause(s.Window.StallCount, func(k CauseKey) {
		p("tapod_window_stalls{service=%q,cause=%q} %d\n", k.Service, k.Cause.String(), s.Window.StallCount[k])
	})

	p("# HELP tapod_window_stall_seconds Stalled seconds inside the rolling window.\n")
	p("# TYPE tapod_window_stall_seconds gauge\n")
	forEachCause(s.Window.StallSeconds, func(k CauseKey) {
		p("tapod_window_stall_seconds{service=%q,cause=%q} %s\n", k.Service, k.Cause.String(), fnum(s.Window.StallSeconds[k]))
	})

	p("# HELP tapod_window_span_seconds Width of the rolling window.\n")
	p("# TYPE tapod_window_span_seconds gauge\n")
	p("tapod_window_span_seconds %s\n", fnum(s.Window.Span.Seconds()))
}

// writeRuntimeMetrics emits the daemon's own Go runtime health —
// goroutine count, heap, GC pause — so the monitor watches itself
// with the same scrape that watches the flows.
func writeRuntimeMetrics(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p("# HELP tapod_goroutines Current goroutine count.\n")
	p("# TYPE tapod_goroutines gauge\n")
	p("tapod_goroutines %d\n", runtime.NumGoroutine())

	p("# HELP tapod_heap_alloc_bytes Bytes of allocated heap objects.\n")
	p("# TYPE tapod_heap_alloc_bytes gauge\n")
	p("tapod_heap_alloc_bytes %d\n", ms.HeapAlloc)

	p("# HELP tapod_heap_sys_bytes Heap memory obtained from the OS.\n")
	p("# TYPE tapod_heap_sys_bytes gauge\n")
	p("tapod_heap_sys_bytes %d\n", ms.HeapSys)

	p("# HELP tapod_gc_cycles_total Completed GC cycles.\n")
	p("# TYPE tapod_gc_cycles_total counter\n")
	p("tapod_gc_cycles_total %d\n", ms.NumGC)

	p("# HELP tapod_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	p("# TYPE tapod_gc_pause_seconds_total counter\n")
	p("tapod_gc_pause_seconds_total %s\n", fnum(float64(ms.PauseTotalNs)/1e9))
}

// writeHistogram emits one Prometheus histogram family from a
// stats.Histogram whose bounds are in milliseconds.
func writeHistogram(p func(string, ...any), name, help string, h *stats.Histogram) {
	p("# HELP %s %s\n", name, help)
	p("# TYPE %s histogram\n", name)
	if h == nil {
		h = stats.NewHistogram(DurationBoundsMS)
	}
	bounds := h.Bounds()
	for i, ub := range bounds {
		p("%s_bucket{le=%q} %d\n", name, fnum(ub), h.Cumulative(i))
	}
	p("%s_bucket{le=\"+Inf\"} %d\n", name, h.N())
	p("%s_sum %s\n", name, fnum(h.Sum()))
	p("%s_count %d\n", name, h.N())
}

// fnum formats a float the way Prometheus clients do: shortest
// round-trip representation.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedRetrans[V any](m map[core.RetransCause]V) []core.RetransCause {
	keys := make([]core.RetransCause, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// forEachCause visits cause-keyed counters sorted by (service, cause).
func forEachCause[V any](m map[CauseKey]V, fn func(CauseKey)) {
	keys := make([]CauseKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Service != keys[j].Service {
			return keys[i].Service < keys[j].Service
		}
		return keys[i].Cause < keys[j].Cause
	})
	for _, k := range keys {
		fn(k)
	}
}
