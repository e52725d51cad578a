package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"

	"tcpstall/internal/core"
	"tcpstall/internal/promtext"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

// NewHandler exposes a Monitor's metrics and admin planes:
//
//	GET /metrics                 Prometheus text exposition (see writeMetrics)
//	GET /healthz                 liveness — 200 "ok" while the monitor accepts records
//	GET /flows                   JSON list of active flows (?n= limits)
//	GET /flows/{id}              one active flow, 404 when unknown/evicted
//	GET /debug/flows/{id}/trace  the flow's flight-recorder evidence
//	GET /stalls                  JSON ring of the most recent settled stalls (?n= limits)
//	GET /config                  JSON of the effective (defaulted) configuration
func NewHandler(m *Monitor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, m.Snapshot())
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
			sj := stallJSON{FlowID: ls.FlowID, Service: ls.Service, StallJSON: ls.Stall.JSON()}
			if ls.Stall.Evidence != nil {
				sj.Evidence = ls.Stall.Evidence.String()
			}
			out = append(out, sj)
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
			"analysis": map[string]any{
				"tau":        cfg.Analysis.Tau,
				"dup_thresh": core.DupThresh,
				"init_cwnd":  core.InitCwnd,
				"init_rto":   trace.InitRTO.String(),
				"min_rto":    trace.MinRTO.String(),
			},
		}
		if cfg.Triage != nil {
			out["triage"] = map[string]any{
				"ring_cap":     cfg.Triage.RingCap,
				"tau":          cfg.Analysis.Tau,
				"min_rto":      trace.MinRTO.String(),
				"init_rto":     trace.InitRTO.String(),
				"dup_burst":    triage.DupBurst,
				"demote_after": cfg.Triage.DemoteAfter.String(),
			}
		}
		if cfg.Flight != nil {
			out["flight"] = map[string]any{
				"window_k":   cfg.Flight.WindowK,
				"max_stalls": cfg.Flight.MaxStalls,
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

// stallJSON is one /stalls row: the stall record of a LiveStall,
// tagged with its flow.
type stallJSON struct {
	FlowID  string `json:"flow_id"`
	Service string `json:"service,omitempty"`
	core.StallJSON
	// Evidence names the flight-recorder entry for this stall
	// (resolve via /debug/flows/{flow_id}/trace); absent when the
	// recorder is disabled.
	Evidence string `json:"evidence,omitempty"`
}

// writeJSON answers v as indented JSON, or 500 if it cannot be encoded.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// The families tapod's /metrics exposes, in exposition order.
var (
	famUptime             = promtext.NewFamily("tapod_uptime_seconds", promtext.Gauge, "Time since the monitor started.")
	famIngested           = promtext.NewFamily("tapod_records_ingested_total", promtext.Counter, "Records accepted into shard queues.")
	famDropped            = promtext.NewFamily("tapod_records_dropped_total", promtext.Counter, "Records discarded, by reason.", "reason")
	famShardRingDrops     = promtext.NewFamily("tapod_shard_ring_drops_total", promtext.Counter, "Records shed at each shard's full intake queue.", "shard")
	famFlightDrops        = promtext.NewFamily("tapod_flight_drops_total", promtext.Counter, "Flight-recorder evidence evicted by the per-flow cap (settled at flow eviction), by kind.", "kind")
	famFed                = promtext.NewFamily("tapod_records_fed_total", promtext.Counter, "Records fed into per-flow analyzers.")
	famTriageRecords      = promtext.NewFamily("tapod_triage_records_total", promtext.Counter, "Records handled by the triage fast path.")
	famTriagePromotions   = promtext.NewFamily("tapod_triage_promotions_total", promtext.Counter, "Flow promotions to full analysis, by symptom.", "symptom")
	famTriageRepromotions = promtext.NewFamily("tapod_triage_repromotions_total", promtext.Counter, "Promotions that re-attached a parked analyzer.")
	famTriageDemotions    = promtext.NewFamily("tapod_triage_demotions_total", promtext.Counter, "Promoted flows parked after staying symptom-free.")
	famTriageTruncated    = promtext.NewFamily("tapod_triage_truncated_promotions_total", promtext.Counter, "Promotions whose symptom evidence predated the record ring (replayed from ring start).")
	famPromotedFlows      = promtext.NewFamily("tapod_triage_promoted_flows", promtext.Gauge, "Live flows currently promoted to full analysis.")
	famParkedFlows        = promtext.NewFamily("tapod_triage_parked_flows", promtext.Gauge, "Live flows holding a demoted (parked) analyzer.")
	famFlowsActive        = promtext.NewFamily("tapod_flows_active", promtext.Gauge, "Flows currently tracked.")
	famFlowsSeen          = promtext.NewFamily("tapod_flows_seen_total", promtext.Counter, "Flows ever admitted.")
	famFlowsEvicted       = promtext.NewFamily("tapod_flows_evicted_total", promtext.Counter, "Flows evicted, by reason.", "reason")
	famFlowsTruncated     = promtext.NewFamily("tapod_flows_truncated_total", promtext.Counter, "Flows that hit the per-flow record cap.")
	famStalls             = promtext.NewFamily("tapod_stalls_total", promtext.Counter, "Closed stalls by service and Figure-5 cause.", "service", "cause", "category")
	famStallSeconds       = promtext.NewFamily("tapod_stall_seconds_total", promtext.Counter, "Total stalled seconds by service and cause.", "service", "cause")
	famStallDuration      = promtext.NewFamily("tapod_stall_duration_ms", promtext.Histogram, "Closed stall durations in milliseconds.")
	famRetransStalls      = promtext.NewFamily("tapod_retrans_stalls_total", promtext.Counter, "Retransmission stalls by Table-5 sub-cause.", "subcause")
	famRetransSeconds     = promtext.NewFamily("tapod_retrans_stall_seconds_total", promtext.Counter, "Retransmission stall seconds by Table-5 sub-cause.", "subcause")
	famGoroutines         = promtext.NewFamily("tapod_goroutines", promtext.Gauge, "Current goroutine count.")
	famHeapAlloc          = promtext.NewFamily("tapod_heap_alloc_bytes", promtext.Gauge, "Bytes of allocated heap objects.")
	famHeapSys            = promtext.NewFamily("tapod_heap_sys_bytes", promtext.Gauge, "Heap memory obtained from the OS.")
	famGCCycles           = promtext.NewFamily("tapod_gc_cycles_total", promtext.Counter, "Completed GC cycles.")
	famGCPause            = promtext.NewFamily("tapod_gc_pause_seconds_total", promtext.Counter, "Cumulative GC stop-the-world pause time.")
)

// writeMetrics renders a Snapshot, then the daemon's own Go runtime
// health (goroutines, heap, GC pause), so the monitor watches itself
// with the same scrape that watches the flows. Label sets are emitted
// in sorted order so scrapes are deterministic and diffable.
func writeMetrics(w io.Writer, s Snapshot) {
	pw := promtext.NewWriter(w)
	pw.Float(famUptime, s.Uptime.Seconds())
	pw.Uint(famIngested, s.Ingested)
	pw.Uint(famDropped, s.RingDrops, "ring_full")
	pw.Uint(famDropped, s.RecordsCapDrop, "flow_record_cap")
	pw.Family(famShardRingDrops)
	for i, n := range s.ShardRingDrops {
		pw.Uint(famShardRingDrops, n, strconv.Itoa(i))
	}
	pw.Uint(famFlightDrops, s.FlightEvidenceDrops, "evidence")
	pw.Uint(famFed, s.RecordsFed)
	pw.Uint(famTriageRecords, s.TriageFastRecords)
	pw.Counts(famTriagePromotions, s.TriagePromotions)
	pw.Uint(famTriageRepromotions, s.TriageRepromotions)
	pw.Uint(famTriageDemotions, s.TriageDemotions)
	pw.Uint(famTriageTruncated, s.TriageTruncatedPromotions)
	pw.Uint(famPromotedFlows, uint64(s.PromotedFlows))
	pw.Uint(famParkedFlows, uint64(s.ParkedFlows))
	pw.Uint(famFlowsActive, uint64(s.ActiveFlows))
	pw.Uint(famFlowsSeen, s.FlowsSeen)
	pw.Counts(famFlowsEvicted, s.FlowsEvicted)
	pw.Uint(famFlowsTruncated, s.FlowsTruncated)

	pw.Family(famStalls)
	forEachCause(s.StallCount, func(k CauseKey) {
		pw.Uint(famStalls, s.StallCount[k], k.Service, k.Cause.String(), core.CategoryOf(k.Cause).String())
	})
	pw.Family(famStallSeconds)
	forEachCause(s.StallTime, func(k CauseKey) {
		pw.Float(famStallSeconds, s.StallTime[k].Seconds(), k.Service, k.Cause.String())
	})
	durs := s.DurationsMS
	if durs == nil {
		durs = stats.NewHistogram(DurationBoundsMS)
	}
	pw.Histogram(famStallDuration, durs.State())
	pw.Family(famRetransStalls)
	for _, c := range sortedRetrans(s.RetransCount) {
		pw.Uint(famRetransStalls, s.RetransCount[c], c.String())
	}
	pw.Family(famRetransSeconds)
	for _, c := range sortedRetrans(s.RetransTime) {
		pw.Float(famRetransSeconds, s.RetransTime[c].Seconds(), c.String())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pw.Uint(famGoroutines, uint64(runtime.NumGoroutine()))
	pw.Uint(famHeapAlloc, ms.HeapAlloc)
	pw.Uint(famHeapSys, ms.HeapSys)
	pw.Uint(famGCCycles, uint64(ms.NumGC))
	pw.Float(famGCPause, float64(ms.PauseTotalNs)/1e9)
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
