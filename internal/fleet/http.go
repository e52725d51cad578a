package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"tcpstall/internal/promtext"
)

// NewServer builds the http.Server behind tapoctl's and tapod's HTTP
// port so that a client which never finishes its request headers
// cannot hold a connection and a goroutine forever. There is
// deliberately no WriteTimeout: /fleet/events/stream is long-lived SSE.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// NewHandler exposes the head's control and observation planes:
//
//	POST /fleet/register       member registration → epoch assignment
//	POST /fleet/push           member snapshot push (doubles as heartbeat)
//	GET  /fleet/members        every known member, live and dead
//	GET  /fleet/stalls         fleet-wide stall totals, cumulative + window (?service=)
//	GET  /fleet/services       per-service rollup of the same
//	GET  /fleet/stats          the head's own protocol accounting
//	GET  /fleet/timeseries     per-interval delta rings: fleet, services, members (?service=)
//	GET  /fleet/events         event ring backlog (?since=ID)
//	GET  /fleet/events/stream  the same as live SSE (?since= / Last-Event-ID)
//	GET  /fleet/config         the current config downlink
//	POST /fleet/config         merge settings into the downlink, bump version
//	GET  /dashboard            embedded operator dashboard (self-contained HTML)
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness
//
// Every response carries Cache-Control: no-store — the head is a live
// view; a cached copy of any of it is wrong by definition.
func NewHandler(h *Head) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := h.Register(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /fleet/push", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBytes+1))
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxSnapshotBytes {
			http.Error(w, "snapshot exceeds the 8 MiB limit", http.StatusRequestEntityTooLarge)
			return
		}
		var snap Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			writeJSON(w, PushResponse{OK: false, Error: ErrBadSnapshot})
			return
		}
		resp := h.Push(&snap)
		if resp.OK {
			h.AddSnapshotBytes(len(body))
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /fleet/members", func(w http.ResponseWriter, r *http.Request) {
		members := h.Members()
		writeJSON(w, map[string]any{"count": len(members), "members": members})
	})
	mux.HandleFunc("GET /fleet/stalls", func(w http.ResponseWriter, r *http.Request) {
		totals, err := h.Totals()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		win := h.Window()
		if svc := r.URL.Query().Get("service"); svc != "" {
			cum := filterStalls(totals.Stalls, svc)
			wst := filterStalls(win.Stalls, svc)
			if len(cum) == 0 && len(wst) == 0 {
				http.Error(w, fmt.Sprintf("unknown service %q", svc), http.StatusBadRequest)
				return
			}
			writeJSON(w, map[string]any{"service": svc, "stalls": cum, "window_stalls": wst})
			return
		}
		writeJSON(w, map[string]any{"totals": totals, "window": win})
	})
	mux.HandleFunc("GET /fleet/services", func(w http.ResponseWriter, r *http.Request) {
		totals, err := h.Totals()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		rows := serviceRows(totals, h.Window())
		writeJSON(w, map[string]any{"count": len(rows), "services": rows})
	})
	mux.HandleFunc("GET /fleet/config", func(w http.ResponseWriter, r *http.Request) {
		cu := h.ConfigSnapshot()
		if cu == nil {
			writeJSON(w, map[string]any{"version": 0})
			return
		}
		writeJSON(w, cu)
	})
	mux.HandleFunc("POST /fleet/config", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Settings map[string]any `json:"settings"`
		}
		if !readJSON(w, r, &req) {
			return
		}
		if len(req.Settings) == 0 {
			http.Error(w, `empty update: body must be {"settings": {...}}`, http.StatusBadRequest)
			return
		}
		v := h.SetConfig(req.Settings)
		writeJSON(w, map[string]any{"version": v})
	})
	mux.HandleFunc("GET /fleet/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, h.Stats())
	})
	mux.HandleFunc("GET /fleet/timeseries", func(w http.ResponseWriter, r *http.Request) {
		svc := r.URL.Query().Get("service")
		resp, ok := h.TimeSeries(svc)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown service %q", svc), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /fleet/events", func(w http.ResponseWriter, r *http.Request) {
		since, ok := sinceParam(w, r)
		if !ok {
			return
		}
		writeJSON(w, h.Events(since))
	})
	mux.HandleFunc("GET /fleet/events/stream", func(w http.ResponseWriter, r *http.Request) {
		serveEventStream(h, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		totals, err := h.Totals()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		writeMetrics(w, h.Stats(), totals, h.Window())
	})
	mux.HandleFunc("GET /dashboard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		w.Write(dashboardHTML)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// filterStalls keeps the cells of one service.
func filterStalls(cells []StallCounter, svc string) []StallCounter {
	var out []StallCounter
	for _, sc := range cells {
		if sc.Service == svc {
			out = append(out, sc)
		}
	}
	return out
}

// sinceParam parses ?since= (an event ID; Last-Event-ID wins when an
// SSE client reconnects with it). Absent means 0 — everything
// retained. A non-numeric value 400s, mirroring the ?n= guard on the
// tapod endpoints.
func sinceParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("since")
	}
	if raw == "" {
		return 0, true
	}
	since, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad since=%q: %v", raw, err), http.StatusBadRequest)
		return 0, false
	}
	return since, true
}

// sseKeepalive is how often an idle stream writes an SSE comment so
// intermediaries do not reap the connection.
const sseKeepalive = 15 * time.Second

// serveEventStream is the SSE side of the event ring: backlog first,
// then live events as they publish, until the client hangs up or the
// head closes. Writes id: lines so a dropped client reconnects with
// Last-Event-ID and misses nothing still retained.
func serveEventStream(h *Head, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: with an empty backlog nothing else would,
	// and the client's request blocks until they arrive.
	fl.Flush()
	backlog, ch, cancel := h.events.subscribe(since)
	defer cancel()
	write := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.ID, b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range backlog {
		if !write(ev) {
			return
		}
	}
	ka := time.NewTicker(sseKeepalive)
	defer ka.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-h.events.closed:
			return
		case <-ka.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev := <-ch:
			if !write(ev) {
				return
			}
		}
	}
}

// maxSnapshotBytes bounds a push body. A snapshot is a few KiB of
// counters; 8 MiB is far past any legitimate fleet and cheap to hold.
const maxSnapshotBytes = 8 << 20

// serviceRow is one row of the /fleet/services rollup.
type serviceRow struct {
	Service            string  `json:"service"`
	Stalls             uint64  `json:"stalls"`
	StallSeconds       float64 `json:"stall_seconds"`
	WindowStalls       uint64  `json:"window_stalls"`
	WindowStallSeconds float64 `json:"window_stall_seconds"`
	// TopCause is the cumulative plurality cause — the first thing an
	// operator wants per service (ties break alphabetically).
	TopCause string `json:"top_cause,omitempty"`
}

// serviceRows collapses the cause dimension into a per-service view.
func serviceRows(t Totals, w WindowTotals) []serviceRow {
	bySvc := map[string]*serviceRow{}
	topCount := map[string]uint64{}
	row := func(svc string) *serviceRow {
		r := bySvc[svc]
		if r == nil {
			r = &serviceRow{Service: svc}
			bySvc[svc] = r
		}
		return r
	}
	for _, sc := range t.Stalls {
		r := row(sc.Service)
		r.Stalls += sc.Count
		r.StallSeconds += sc.Seconds
		if sc.Count > topCount[sc.Service] {
			topCount[sc.Service] = sc.Count
			r.TopCause = sc.Cause
		}
	}
	for _, sc := range w.Stalls {
		r := row(sc.Service)
		r.WindowStalls += sc.Count
		r.WindowStallSeconds += sc.Seconds
	}
	out := make([]serviceRow, 0, len(bySvc))
	for _, r := range bySvc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

// readJSON decodes a request body, bounding it and rejecting trailing
// garbage; on failure it writes a 400 and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// The families the head's /metrics exposes, in exposition order.
var (
	famMembers       = promtext.NewFamily("tapoctl_members", promtext.Gauge, "Members ever registered.")
	famLiveMembers   = promtext.NewFamily("tapoctl_live_members", promtext.Gauge, "Members with a live (unretired) epoch.")
	famRegistrations = promtext.NewFamily("tapoctl_registrations_total", promtext.Counter, "Epoch assignments, including restarts.")
	famRestarts      = promtext.NewFamily("tapoctl_member_restarts_total", promtext.Counter, "Re-registrations of a known member.")
	famExpiries      = promtext.NewFamily("tapoctl_member_expiries_total", promtext.Counter, "Epochs retired for going silent.")
	famPushes        = promtext.NewFamily("tapoctl_pushes_total", promtext.Counter, "Snapshot pushes accepted.")
	famFinalPushes   = promtext.NewFamily("tapoctl_final_pushes_total", promtext.Counter, "Accepted pushes that retired their epoch.")
	famRejects       = promtext.NewFamily("tapoctl_push_rejects_total", promtext.Counter, "Rejected pushes, by reason.", "reason")
	famSnapshotBytes = promtext.NewFamily("tapoctl_snapshot_bytes_total", promtext.Counter, "Wire bytes of accepted snapshots.")
	famMergeLatency  = promtext.NewFamily("tapoctl_merge_latency_ms", promtext.Summary, "Totals-rebuild latency per accepted push.")
	famEpochs        = promtext.NewFamily("fleet_epochs_total", promtext.Counter, "Epochs folded into the fleet totals.")
	famIngested      = promtext.NewFamily("fleet_records_ingested_total", promtext.Counter, "Records accepted across the fleet.")
	famDropped       = promtext.NewFamily("fleet_records_dropped_total", promtext.Counter, "Records discarded across the fleet, by reason.", "reason")
	famFed           = promtext.NewFamily("fleet_records_fed_total", promtext.Counter, "Records fed into analyzers across the fleet.")
	famTriageRecords = promtext.NewFamily("fleet_triage_records_total", promtext.Counter, "Records handled by triage fast paths across the fleet.")
	famFlowsSeen     = promtext.NewFamily("fleet_flows_seen_total", promtext.Counter, "Flows admitted across the fleet.")
	famFlowsEvicted  = promtext.NewFamily("fleet_flows_evicted_total", promtext.Counter, "Flows evicted across the fleet, by reason.", "reason")
	famUnknownKeys   = promtext.NewFamily("fleet_unknown_config_keys_total", promtext.Counter, "Config keys members did not understand.")
	famStalls        = promtext.NewFamily("fleet_stalls_total", promtext.Counter, "Closed stalls across the fleet, by service and cause.", "service", "cause")
	famStallSeconds  = promtext.NewFamily("fleet_stall_seconds_total", promtext.Counter, "Stalled seconds across the fleet, by service and cause.", "service", "cause")
	famRetransStalls = promtext.NewFamily("fleet_retrans_stalls_total", promtext.Counter, "Retransmission stalls across the fleet, by Table-5 sub-cause.", "subcause")
	famStallDuration = promtext.NewFamily("fleet_stall_duration_ms", promtext.Histogram, "Closed stall durations across the fleet, in milliseconds.")
	famWindowStalls  = promtext.NewFamily("fleet_window_stalls", promtext.Gauge, "Stalls inside the rolling window across live members.", "service", "cause")
	famWindowSpan    = promtext.NewFamily("fleet_window_span_seconds", promtext.Gauge, "Width of the rolling window.")
)

// writeMetrics renders the head's fleet-wide state. Label sets are
// sorted for deterministic scrapes.
func writeMetrics(w io.Writer, st HeadStats, t Totals, win WindowTotals) {
	pw := promtext.NewWriter(w)
	pw.Uint(famMembers, uint64(st.Members))
	pw.Uint(famLiveMembers, uint64(st.LiveMembers))
	pw.Uint(famRegistrations, st.Registrations)
	pw.Uint(famRestarts, st.Restarts)
	pw.Uint(famExpiries, st.Expiries)
	pw.Uint(famPushes, st.Pushes)
	pw.Uint(famFinalPushes, st.FinalPushes)
	pw.Counts(famRejects, st.Rejects)
	pw.Uint(famSnapshotBytes, st.SnapshotBytes)
	pw.Summary(famMergeLatency, uint64(st.MergeCount),
		promtext.Quantile{Q: 0.5, V: st.MergeP50MS}, promtext.Quantile{Q: 0.99, V: st.MergeP99MS})

	pw.Uint(famEpochs, uint64(t.Epochs))
	pw.Uint(famIngested, t.Ingested)
	pw.Uint(famDropped, t.RingDrops, "ring_full")
	pw.Uint(famDropped, t.RecordCapDrops, "flow_record_cap")
	pw.Uint(famDropped, t.SampledOut, "sampled_out")
	pw.Uint(famFed, t.RecordsFed)
	pw.Uint(famTriageRecords, t.TriageFastRecords)
	pw.Uint(famFlowsSeen, t.FlowsSeen)
	pw.Counts(famFlowsEvicted, t.FlowsEvicted)
	pw.Uint(famUnknownKeys, t.UnknownConfigKeys)
	pw.Family(famStalls)
	for _, sc := range t.Stalls {
		pw.Uint(famStalls, sc.Count, sc.Service, sc.Cause)
	}
	pw.Family(famStallSeconds)
	for _, sc := range t.Stalls {
		pw.Float(famStallSeconds, sc.Seconds, sc.Service, sc.Cause)
	}
	pw.Family(famRetransStalls)
	for _, rc := range t.Retrans {
		pw.Uint(famRetransStalls, rc.Count, rc.Subcause)
	}
	pw.Histogram(famStallDuration, t.DurationsMS)
	pw.Family(famWindowStalls)
	for _, sc := range win.Stalls {
		pw.Uint(famWindowStalls, sc.Count, sc.Service, sc.Cause)
	}
	pw.Float(famWindowSpan, win.SpanS)
}
