package live

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/triage"
)

func get(t *testing.T, h *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestHTTPPlane(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m := New(Config{Shards: 1, Clock: clk.Now})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// A flow with one large inter-packet gap: a guaranteed stall.
	feedDirect(m, dataEvent("tapo-1", 0, 1000, 1460))
	feedDirect(m, dataEvent("tapo-1", sim.Time(2*time.Second), 2460, 1460))

	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"tapod_flows_active 1",
		"tapod_records_fed_total 2",
		"tapod_records_dropped_total{reason=\"ring_full\"} 0",
		// With no client SYN or ACKs the advertised window is unknown
		// (0), so the classifier reads the gap as zero-rwnd.
		"tapod_stalls_total{service=\"\",cause=\"zero-rwnd\",category=\"client\"} 1",
		"tapod_stall_duration_ms_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/flows")
	if code != 200 {
		t.Fatalf("/flows = %d", code)
	}
	var flows struct {
		Active int        `json:"active"`
		Flows  []FlowInfo `json:"flows"`
	}
	if err := json.Unmarshal([]byte(body), &flows); err != nil {
		t.Fatalf("/flows JSON: %v\n%s", err, body)
	}
	if flows.Active != 1 || len(flows.Flows) != 1 || flows.Flows[0].ID != "tapo-1" {
		t.Errorf("/flows = %+v", flows)
	}
	if flows.Flows[0].Records != 2 {
		t.Errorf("flow records = %d, want 2", flows.Flows[0].Records)
	}

	code, body = get(t, srv, "/stalls")
	if code != 200 {
		t.Fatalf("/stalls = %d", code)
	}
	var stalls struct {
		Count  int         `json:"count"`
		Stalls []stallJSON `json:"stalls"`
	}
	if err := json.Unmarshal([]byte(body), &stalls); err != nil {
		t.Fatalf("/stalls JSON: %v\n%s", err, body)
	}
	if stalls.Count != 1 || stalls.Stalls[0].FlowID != "tapo-1" {
		t.Fatalf("/stalls = %+v", stalls)
	}
	if stalls.Stalls[0].Cause != "zero-rwnd" || stalls.Stalls[0].Category != "client" {
		t.Errorf("stall classification = %+v", stalls.Stalls[0])
	}

	code, body = get(t, srv, "/config")
	if code != 200 || !strings.Contains(body, "\"max_flows\": 65536") {
		t.Errorf("/config = %d %q", code, body)
	}
	// The triage and flight blocks say what is on: each is present
	// exactly when configured, flight with its defaulted values. The
	// analysis block shows what the analyzers run at, and triage
	// shares its τ and RTO bounds.
	for _, tc := range []struct{ triage, flight bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		cfg := Config{Shards: 1, Clock: clk.Now}
		if tc.triage {
			cfg.Triage = &triage.Config{}
		}
		if tc.flight {
			cfg.Flight = &flight.Config{WindowK: 4}
		}
		cm := New(cfg)
		csrv := httptest.NewServer(NewHandler(cm))
		code, body := get(t, csrv, "/config")
		csrv.Close()
		cm.Close()
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &out); code != 200 || err != nil {
			t.Fatalf("%+v: /config = %d %v\n%s", tc, code, err, body)
		}
		if _, ok := out["triage"]; ok != tc.triage {
			t.Errorf("%+v: /config triage block present = %v", tc, ok)
		}
		if _, ok := out["flight"]; ok != tc.flight {
			t.Errorf("%+v: /config flight block present = %v", tc, ok)
		}
		var an map[string]any
		if err := json.Unmarshal(out["analysis"], &an); err != nil {
			t.Fatalf("%+v: analysis block: %v", tc, err)
		}
		want := map[string]any{"tau": 2.0, "dup_thresh": 3.0, "init_cwnd": 3.0, "init_rto": "1s", "min_rto": "200ms"}
		if !maps.Equal(an, want) {
			t.Errorf("%+v: analysis block = %v, want %v", tc, an, want)
		}
		if tc.triage {
			var tr map[string]any
			if err := json.Unmarshal(out["triage"], &tr); err != nil {
				t.Fatalf("%+v: triage block: %v", tc, err)
			}
			want := map[string]any{"ring_cap": 1024.0, "tau": 2.0, "min_rto": "200ms", "init_rto": "1s",
				"dup_burst": 2.0, "demote_after": "2s"}
			if !maps.Equal(tr, want) {
				t.Errorf("%+v: triage block = %v, want %v", tc, tr, want)
			}
		}
		if tc.flight {
			var fl map[string]int
			if err := json.Unmarshal(out["flight"], &fl); err != nil {
				t.Fatalf("%+v: flight block: %v", tc, err)
			}
			if want := map[string]int{"window_k": 4, "max_stalls": 32}; !maps.Equal(fl, want) {
				t.Errorf("%+v: flight block = %v, want %v", tc, fl, want)
			}
		}
	}

	// Shutdown flips the health check.
	m.Close()
	if code, _ := get(t, srv, "/healthz"); code != 503 {
		t.Errorf("/healthz after Close = %d, want 503", code)
	}
}

// TestLimitParam pins the ?n= contract on /flows and /stalls: 0 and
// anything at or above the list length return the whole list,
// in-range values truncate, and negative, absurd, or non-numeric
// values are 400s — never a silent clamp.
func TestLimitParam(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m := New(Config{Shards: 1, Clock: clk.Now})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	feedDirect(m, dataEvent("lim-1", 0, 1000, 1460))
	feedDirect(m, dataEvent("lim-2", 0, 1000, 1460))

	countFlows := func(body string) int {
		t.Helper()
		var flows struct {
			Flows []FlowInfo `json:"flows"`
		}
		if err := json.Unmarshal([]byte(body), &flows); err != nil {
			t.Fatalf("JSON: %v\n%s", err, body)
		}
		return len(flows.Flows)
	}

	for _, tc := range []struct {
		path string
		code int
		n    int // expected list length when code == 200
	}{
		{"/flows", 200, 2},           // no n: everything
		{"/flows?n=0", 200, 2},       // 0 means no cap
		{"/flows?n=1", 200, 1},       // in-range truncation
		{"/flows?n=2", 200, 2},       // exactly the length
		{"/flows?n=1000", 200, 2},    // above the length, below the bound
		{"/flows?n=1048576", 200, 2}, // the bound itself is accepted
		{"/flows?n=-1", 400, 0},
		{"/flows?n=1048577", 400, 0},
		{"/flows?n=9999999999999999999", 400, 0}, // overflows int64 too
		{"/flows?n=ten", 400, 0},
		{"/stalls?n=-1", 400, 0},
		{"/stalls?n=1048577", 400, 0},
	} {
		code, body := get(t, srv, tc.path)
		if code != tc.code {
			t.Errorf("%s = %d, want %d (%s)", tc.path, code, tc.code, body)
			continue
		}
		if code == 200 && strings.HasPrefix(tc.path, "/flows") {
			if got := countFlows(body); got != tc.n {
				t.Errorf("%s returned %d flows, want %d", tc.path, got, tc.n)
			}
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot hold is answered 500,
// not 200 with an empty or partial body.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, map[string]any{"ok": 1, "x": math.NaN()})
	if w.Code != http.StatusInternalServerError || strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("NaN: %d %q, want 500 and no JSON", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	writeJSON(w, map[string]any{"ok": 1})
	if w.Code != http.StatusOK || w.Body.String() != "{\n  \"ok\": 1\n}\n" {
		t.Errorf("encodable: %d %q", w.Code, w.Body.String())
	}
}
