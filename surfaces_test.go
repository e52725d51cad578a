package tcpstall_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/explain"
	"tcpstall/internal/fleet"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/trace"
)

// TestStallSurfacesAgree renders every stall of golden_network.pcap
// through each surface that reports stalls and requires every
// core.StallJSON key to be there with the value the stall's own JSON
// gives (an omitted key omitted everywhere). An outer field that
// shadows an embedded key passes jsontags; it fails here. Stall 0
// carries every key, stall 1 a nonzero id, and stall 2 a verdict
// that settles only after its close.
func TestStallSurfacesAgree(t *testing.T) {
	raw, err := os.ReadFile("internal/core/testdata/golden_network.pcap")
	if err != nil {
		t.Fatal(err)
	}
	flows, err := trace.ImportPcap(bytes.NewReader(raw), trace.ImportConfig{})
	if err != nil || len(flows) != 1 {
		t.Fatalf("import: %d flows, %v", len(flows), err)
	}
	f := flows[0]
	a, rec := core.AnalyzeFlight(f, core.DefaultConfig(), flight.Config{})
	if len(a.Stalls) < 3 {
		t.Fatalf("golden_network has %d stalls, want at least 3", len(a.Stalls))
	}

	// The live side: one member feeds the capture to a monitor and
	// pushes its digest to a head.
	ctx := context.Background()
	head := fleet.NewHead(fleet.HeadConfig{})
	headSrv := httptest.NewServer(fleet.NewHandler(head))
	defer headSrv.Close()
	mon := live.New(live.Config{
		MaxFlows: math.MaxInt, MaxRecordsPerFlow: -1, IdleTimeout: math.MaxInt64,
		Flight: &flight.Config{},
	})
	mon.Start()
	monSrv := httptest.NewServer(live.NewHandler(mon))
	defer monSrv.Close()
	mb, err := fleet.NewMember(fleet.MemberConfig{ID: "m", Head: headSrv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	var evs []trace.RecordEvent
	if err := trace.ImportPcapRecords(bytes.NewReader(raw), trace.ImportConfig{}, func(ev trace.RecordEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mb.IngestBatch(evs)
	mon.Close() // every stall has closed
	digest := mb.Snapshot().Events
	if err := mb.Close(ctx); err != nil {
		t.Fatal(err)
	}

	var analyses, traced, stalls, digested, events []map[string]any
	b, err := core.MarshalAnalyses([]*core.FlowAnalysis{a})
	if err != nil {
		t.Fatal(err)
	}
	var flowsJSON []struct {
		Stalls []map[string]any `json:"stalls"`
	}
	decode(t, b, &flowsJSON)
	analyses = flowsJSON[0].Stalls

	var jsonl bytes.Buffer
	tw := explain.NewTraceWriter(&jsonl)
	if err := tw.Stalls(a, rec); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	for sc := bufio.NewScanner(&jsonl); sc.Scan(); {
		var line map[string]any
		decode(t, sc.Bytes(), &line)
		if line["type"] == "stall" && line["flow"] == f.ID {
			traced = append(traced, line)
		}
	}

	var stallsResp struct {
		Stalls []map[string]any `json:"stalls"`
	}
	decode(t, get(t, monSrv.URL+"/stalls"), &stallsResp)
	for _, s := range stallsResp.Stalls {
		if s["flow_id"] == f.ID {
			stalls = append(stalls, s)
		}
	}

	for _, se := range digest {
		var m map[string]any
		decode(t, mustMarshal(t, se), &m)
		digested = append(digested, m)
	}

	var eventsResp struct {
		Events []map[string]any `json:"events"`
	}
	decode(t, get(t, headSrv.URL+"/fleet/events"), &eventsResp)
	for _, ev := range eventsResp.Events {
		if s, ok := ev["stall"].(map[string]any); ok && ev["type"] == fleet.EventStall {
			events = append(events, s)
		}
	}

	surfaces := []struct {
		name string
		rows []map[string]any
	}{
		{"core.MarshalAnalyses", analyses},
		{"/stalls", stalls},
		{"TraceWriter", traced},
		{"member digest", digested},
		{"/fleet/events", events},
	}
	keys := stallKeys()
	for i, st := range a.Stalls {
		var want map[string]any
		decode(t, mustMarshal(t, st.JSON()), &want)
		if i == 0 && len(want) != len(keys) {
			t.Errorf("stall 0 has keys %v, want all of %v", want, keys)
		}
		for _, s := range surfaces {
			got := byID(s.rows, want["id"])
			if got == nil {
				t.Errorf("%s: no row for stall %v", s.name, want["id"])
				continue
			}
			for _, k := range keys {
				w, inWant := want[k]
				g, inGot := got[k]
				if inWant != inGot || !reflect.DeepEqual(w, g) {
					t.Errorf("%s: stall %v key %q = %v (present %v), want %v (present %v)",
						s.name, want["id"], k, g, inGot, w, inWant)
				}
			}
		}
	}
}

// stallKeys lists core.StallJSON's json keys.
func stallKeys() []string {
	rt := reflect.TypeOf(core.StallJSON{})
	keys := make([]string, rt.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(rt.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

func byID(rows []map[string]any, id any) map[string]any {
	for _, r := range rows {
		if r["id"] == id {
			return r
		}
	}
	return nil
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %.80q: %v", b, err)
	}
}
