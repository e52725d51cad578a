package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
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

// writeMetrics renders the head's fleet-wide state in the Prometheus
// text exposition format, hand-rolled like the tapod exporter so the
// head stays dependency-free. Label sets are sorted for deterministic
// scrapes.
func writeMetrics(w io.Writer, st HeadStats, t Totals, win WindowTotals) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP tapoctl_members Members ever registered.\n")
	p("# TYPE tapoctl_members gauge\n")
	p("tapoctl_members %d\n", st.Members)

	p("# HELP tapoctl_live_members Members with a live (unretired) epoch.\n")
	p("# TYPE tapoctl_live_members gauge\n")
	p("tapoctl_live_members %d\n", st.LiveMembers)

	p("# HELP tapoctl_registrations_total Epoch assignments, including restarts.\n")
	p("# TYPE tapoctl_registrations_total counter\n")
	p("tapoctl_registrations_total %d\n", st.Registrations)

	p("# HELP tapoctl_member_restarts_total Re-registrations of a known member.\n")
	p("# TYPE tapoctl_member_restarts_total counter\n")
	p("tapoctl_member_restarts_total %d\n", st.Restarts)

	p("# HELP tapoctl_member_expiries_total Epochs retired for going silent.\n")
	p("# TYPE tapoctl_member_expiries_total counter\n")
	p("tapoctl_member_expiries_total %d\n", st.Expiries)

	p("# HELP tapoctl_pushes_total Snapshot pushes accepted.\n")
	p("# TYPE tapoctl_pushes_total counter\n")
	p("tapoctl_pushes_total %d\n", st.Pushes)

	p("# HELP tapoctl_final_pushes_total Accepted pushes that retired their epoch.\n")
	p("# TYPE tapoctl_final_pushes_total counter\n")
	p("tapoctl_final_pushes_total %d\n", st.FinalPushes)

	p("# HELP tapoctl_push_rejects_total Rejected pushes, by reason.\n")
	p("# TYPE tapoctl_push_rejects_total counter\n")
	for _, reason := range sortedKeys(st.Rejects) {
		p("tapoctl_push_rejects_total{reason=%q} %d\n", reason, st.Rejects[reason])
	}

	p("# HELP tapoctl_snapshot_bytes_total Wire bytes of accepted snapshots.\n")
	p("# TYPE tapoctl_snapshot_bytes_total counter\n")
	p("tapoctl_snapshot_bytes_total %d\n", st.SnapshotBytes)

	p("# HELP tapoctl_merge_latency_ms Totals-rebuild latency per accepted push.\n")
	p("# TYPE tapoctl_merge_latency_ms summary\n")
	p("tapoctl_merge_latency_ms{quantile=\"0.5\"} %s\n", fnum(st.MergeP50MS))
	p("tapoctl_merge_latency_ms{quantile=\"0.99\"} %s\n", fnum(st.MergeP99MS))
	p("tapoctl_merge_latency_ms_count %d\n", st.MergeCount)

	p("# HELP fleet_epochs_total Epochs folded into the fleet totals.\n")
	p("# TYPE fleet_epochs_total counter\n")
	p("fleet_epochs_total %d\n", t.Epochs)

	p("# HELP fleet_records_ingested_total Records accepted across the fleet.\n")
	p("# TYPE fleet_records_ingested_total counter\n")
	p("fleet_records_ingested_total %d\n", t.Ingested)

	p("# HELP fleet_records_dropped_total Records discarded across the fleet, by reason.\n")
	p("# TYPE fleet_records_dropped_total counter\n")
	p("fleet_records_dropped_total{reason=%q} %d\n", "ring_full", t.RingDrops)
	p("fleet_records_dropped_total{reason=%q} %d\n", "flow_record_cap", t.RecordCapDrops)
	p("fleet_records_dropped_total{reason=%q} %d\n", "sampled_out", t.SampledOut)

	p("# HELP fleet_records_fed_total Records fed into analyzers across the fleet.\n")
	p("# TYPE fleet_records_fed_total counter\n")
	p("fleet_records_fed_total %d\n", t.RecordsFed)

	p("# HELP fleet_triage_records_total Records handled by triage fast paths across the fleet.\n")
	p("# TYPE fleet_triage_records_total counter\n")
	p("fleet_triage_records_total %d\n", t.TriageFastRecords)

	p("# HELP fleet_flows_seen_total Flows admitted across the fleet.\n")
	p("# TYPE fleet_flows_seen_total counter\n")
	p("fleet_flows_seen_total %d\n", t.FlowsSeen)

	p("# HELP fleet_flows_evicted_total Flows evicted across the fleet, by reason.\n")
	p("# TYPE fleet_flows_evicted_total counter\n")
	for _, reason := range sortedKeys(t.FlowsEvicted) {
		p("fleet_flows_evicted_total{reason=%q} %d\n", reason, t.FlowsEvicted[reason])
	}

	p("# HELP fleet_unknown_config_keys_total Config keys members did not understand.\n")
	p("# TYPE fleet_unknown_config_keys_total counter\n")
	p("fleet_unknown_config_keys_total %d\n", t.UnknownConfigKeys)

	p("# HELP fleet_stalls_total Closed stalls across the fleet, by service and cause.\n")
	p("# TYPE fleet_stalls_total counter\n")
	for _, sc := range t.Stalls {
		p("fleet_stalls_total{service=%q,cause=%q} %d\n", sc.Service, sc.Cause, sc.Count)
	}

	p("# HELP fleet_stall_seconds_total Stalled seconds across the fleet, by service and cause.\n")
	p("# TYPE fleet_stall_seconds_total counter\n")
	for _, sc := range t.Stalls {
		p("fleet_stall_seconds_total{service=%q,cause=%q} %s\n", sc.Service, sc.Cause, fnum(sc.Seconds))
	}

	p("# HELP fleet_retrans_stalls_total Retransmission stalls across the fleet, by Table-5 sub-cause.\n")
	p("# TYPE fleet_retrans_stalls_total counter\n")
	for _, rc := range t.Retrans {
		p("fleet_retrans_stalls_total{subcause=%q} %d\n", rc.Subcause, rc.Count)
	}

	p("# HELP fleet_stall_duration_ms Closed stall durations across the fleet, in milliseconds.\n")
	p("# TYPE fleet_stall_duration_ms histogram\n")
	var cum uint64
	for i, ub := range t.DurationsMS.Bounds {
		cum += t.DurationsMS.Counts[i]
		p("fleet_stall_duration_ms_bucket{le=%q} %d\n", fnum(ub), cum)
	}
	var n uint64
	for _, c := range t.DurationsMS.Counts {
		n += c
	}
	p("fleet_stall_duration_ms_bucket{le=\"+Inf\"} %d\n", n)
	p("fleet_stall_duration_ms_sum %s\n", fnum(t.DurationsMS.Sum))
	p("fleet_stall_duration_ms_count %d\n", n)

	p("# HELP fleet_window_stalls Stalls inside the rolling window across live members.\n")
	p("# TYPE fleet_window_stalls gauge\n")
	for _, sc := range win.Stalls {
		p("fleet_window_stalls{service=%q,cause=%q} %d\n", sc.Service, sc.Cause, sc.Count)
	}

	p("# HELP fleet_window_span_seconds Width of the rolling window.\n")
	p("# TYPE fleet_window_span_seconds gauge\n")
	p("fleet_window_span_seconds %s\n", fnum(win.SpanS))
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
