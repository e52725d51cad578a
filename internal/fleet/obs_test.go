package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/workload"
)

// sumSeries folds a rendered point list into totals for the
// sum-back-to-cumulative checks.
func sumSeries(points []SeriesPoint) (stalls, records uint64, stallSecs float64) {
	for _, p := range points {
		stalls += p.Stalls
		records += p.Records
		stallSecs += p.StallSeconds
	}
	return
}

// TestSeriesDeltaDifferential replays the PR 8 differential scenario —
// a member restart mid-run plus injected duplicate and stale-epoch
// pushes — and pins the time-series contract: every per-interval delta
// is non-negative, rejected pushes never move the rings, and the rings
// sum back to the head's cumulative totals (counts exactly, seconds
// within float epsilon).
func TestSeriesDeltaDifferential(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	svcs := workload.Services()

	// Member m0: first incarnation takes the front half, restarts, the
	// second incarnation takes the back half — the rebase-to-zero case.
	ev0 := memberEvents(svcs[0], 101, 4)
	mon0a := newTestMonitor()
	m0a, err := NewMember(MemberConfig{ID: "m0", Head: srv.URL, Monitor: mon0a})
	if err != nil {
		t.Fatal(err)
	}
	if err := m0a.Register(ctx); err != nil {
		t.Fatal(err)
	}
	feedChunks(t, ctx, m0a, ev0[:len(ev0)/2])
	if err := m0a.Push(ctx); err != nil {
		t.Fatal(err)
	}

	// Rejected pushes must leave the rings untouched.
	before, _ := head.TimeSeries("")
	dup := m0a.Snapshot()
	dup.Seq = 1
	if resp := head.Push(&dup); resp.OK {
		t.Fatal("duplicate push accepted")
	}
	stale := m0a.Snapshot()
	stale.Epoch = 9999
	stale.Seq = 99
	if resp := head.Push(&stale); resp.OK {
		t.Fatal("stale push accepted")
	}
	after, _ := head.TimeSeries("")
	if !bytes.Equal(marshal(t, before), marshal(t, after)) {
		t.Fatal("rejected pushes changed the time-series rings")
	}

	if err := m0a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mon0b := newTestMonitor()
	m0b, err := NewMember(MemberConfig{ID: "m0", Head: srv.URL, Monitor: mon0b})
	if err != nil {
		t.Fatal(err)
	}
	if err := m0b.Register(ctx); err != nil {
		t.Fatal(err)
	}
	feedChunks(t, ctx, m0b, ev0[len(ev0)/2:])

	// Member m1: straight-through replay of a second service.
	mon1 := newTestMonitor()
	m1, err := NewMember(MemberConfig{ID: "m1", Head: srv.URL, Monitor: mon1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Register(ctx); err != nil {
		t.Fatal(err)
	}
	feedChunks(t, ctx, m1, memberEvents(svcs[1%len(svcs)], 202, 4))
	for _, mb := range []*Member{m0b, m1} {
		if err := mb.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	totals, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := head.TimeSeries("")
	if !ok {
		t.Fatal("TimeSeries not ok")
	}

	// Non-negativity: counts are unsigned; a clamping bug shows up as an
	// absurd near-2^64 value, and float fields must not dip below zero.
	for _, p := range ts.Fleet {
		if p.Stalls > 1<<40 || p.Records > 1<<40 {
			t.Fatalf("fleet point has underflowed delta: %+v", p)
		}
		if p.StallSeconds < 0 || p.DurP50MS < 0 || p.DurP99MS < 0 {
			t.Fatalf("fleet point has negative field: %+v", p)
		}
	}

	// Sum back to cumulative: the per-interval deltas telescope to each
	// epoch's last snapshot, and the head totals are exactly the sum of
	// those.
	gotStalls, gotRecords, gotSecs := sumSeries(ts.Fleet)
	var wantStalls uint64
	var wantSecs float64
	for _, sc := range totals.Stalls {
		wantStalls += sc.Count
		wantSecs += sc.Time.Seconds()
	}
	if wantStalls == 0 {
		t.Fatal("replay produced no stalls; the test is vacuous")
	}
	if gotStalls != wantStalls {
		t.Errorf("fleet ring stalls = %d, cumulative totals = %d", gotStalls, wantStalls)
	}
	if gotRecords != totals.Ingested {
		t.Errorf("fleet ring records = %d, cumulative ingested = %d", gotRecords, totals.Ingested)
	}
	if math.Abs(gotSecs-wantSecs) > 1e-6*(1+wantSecs) {
		t.Errorf("fleet ring stall seconds = %g, cumulative = %g", gotSecs, wantSecs)
	}

	// Per-service rings sum to the per-service cumulative cells.
	wantBySvc := map[string]uint64{}
	for _, sc := range totals.Stalls {
		wantBySvc[sc.Service] += sc.Count
	}
	for svc, points := range ts.Services {
		got, _, _ := sumSeries(points)
		if got != wantBySvc[svc] {
			t.Errorf("service %q ring stalls = %d, cumulative = %d", svc, got, wantBySvc[svc])
		}
	}
	// Per-member rings (m0's two epochs share one ring) sum to the
	// fleet ring.
	var memberStalls uint64
	for _, points := range ts.Members {
		got, _, _ := sumSeries(points)
		memberStalls += got
	}
	if memberStalls != gotStalls {
		t.Errorf("member rings sum to %d stalls, fleet ring has %d", memberStalls, gotStalls)
	}
}

// stallSnap is miniSnap plus explicit stall cells, for deterministic
// delta arithmetic.
func stallSnap(id string, epoch, seq, ingested uint64, count uint64, stall time.Duration) *Snapshot {
	s := miniSnap(id, epoch, seq, ingested)
	s.Stalls = []StallCounter{{Service: "svc", Cause: "rto", Count: count, Time: stall}}
	return s
}

// TestSeriesEpochRestartRebase pins the rebase-to-zero rule with exact
// numbers: a restart must fold the new epoch's first cumulative
// snapshot as its own delta — never the (negative) difference against
// the dead epoch's larger counters.
func TestSeriesEpochRestartRebase(t *testing.T) {
	now := time.Unix(10_000, 0)
	head := NewHead(HeadConfig{Clock: func() time.Time { return now }})

	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := head.Push(stallSnap("m", reg.Epoch, 1, 1000, 100, 5*time.Second)); !resp.OK {
		t.Fatalf("push 1: %+v", resp)
	}
	now = now.Add(seriesStep)
	if resp := head.Push(stallSnap("m", reg.Epoch, 2, 1200, 120, 6*time.Second)); !resp.OK {
		t.Fatalf("push 2: %+v", resp)
	}

	// Restart: the new incarnation's counters rebase to (near) zero.
	reg2, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(seriesStep)
	if resp := head.Push(stallSnap("m", reg2.Epoch, 1, 50, 5, 500*time.Millisecond)); !resp.OK {
		t.Fatalf("push 3: %+v", resp)
	}

	ts, ok := head.TimeSeries("")
	if !ok {
		t.Fatal("TimeSeries not ok")
	}
	stalls, records, secs := sumSeries(ts.Fleet)
	// Deltas: 100, 20, then 5 (rebased) — not 5-120 underflowed.
	if stalls != 125 {
		t.Errorf("fleet ring stalls = %d, want 125 (100 + 20 + rebased 5)", stalls)
	}
	if records != 1250 {
		t.Errorf("fleet ring records = %d, want 1250 (1000 + 200 + rebased 50)", records)
	}
	if math.Abs(secs-6.5) > 1e-9 {
		t.Errorf("fleet ring stall seconds = %g, want 6.5", secs)
	}
	// And the cumulative totals agree: epoch 1 retired at (120, 1200),
	// epoch 2 live at (5, 50).
	totals, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if totals.Ingested != 1250 || totals.Stalls[0].Count != 125 {
		t.Errorf("totals = ingested %d stalls %d, want 1250/125", totals.Ingested, totals.Stalls[0].Count)
	}
	// The per-service ring tells the same story.
	svcPoints := ts.Services["svc"]
	svcStalls, _, _ := sumSeries(svcPoints)
	if svcStalls != 125 {
		t.Errorf("service ring stalls = %d, want 125", svcStalls)
	}
}

// TestWindowFromSeries pins the head's one-minute window to the fleet
// time-series ring: Window sums the ring's last windowBuckets buckets
// cell by cell, a member whose final push landed 30 s ago still
// counts, and a push 61 s old does not.
func TestWindowFromSeries(t *testing.T) {
	// T is deliberately not on a step boundary.
	T := time.Unix(10_000, 0).Add(2 * time.Second)
	now := T.Add(-61 * time.Second)
	head := NewHead(HeadConfig{Clock: func() time.Time { return now }})
	cell := func(svc, cause string, n uint64) StallCounter {
		return StallCounter{Service: svc, Cause: cause, Count: n, Time: time.Duration(n) * 100 * time.Millisecond}
	}
	push := func(at time.Duration, id string, seq uint64, final bool, cells ...StallCounter) {
		t.Helper()
		now = T.Add(at)
		if seq == 1 {
			if _, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: id}); err != nil {
				t.Fatal(err)
			}
		}
		var epoch uint64
		for _, mi := range head.Members() {
			if mi.ID == id {
				epoch = mi.Epoch
			}
		}
		s := miniSnap(id, epoch, seq, 10*seq)
		s.Final = final
		s.Stalls = cells
		if resp := head.Push(s); !resp.OK {
			t.Fatalf("%s seq %d: %+v", id, seq, resp)
		}
	}
	push(-61*time.Second, "old", 1, false, cell("a", "rto", 7))
	push(-45*time.Second, "gone", 1, false, cell("a", "rto", 2), cell("b", "zero-rwnd", 1))
	push(-30*time.Second, "gone", 2, true, cell("a", "rto", 5), cell("b", "zero-rwnd", 1))
	push(-20*time.Second, "live", 1, false, cell("a", "rto", 1))
	push(0, "live", 2, false, cell("a", "rto", 2), cell("c", "client-idle", 4))

	// ringSum is the reference: the fleet ring's last windowBuckets
	// buckets, the current one included, summed per (service, cause).
	ringSum := func() map[[2]string]StallCounter {
		out := map[[2]string]StallCounter{}
		cur := now.UnixNano() / int64(seriesStep)
		for ep := cur - windowBuckets + 1; ep <= cur; ep++ {
			if b := head.series.fleet.at(ep); b != nil {
				for _, sc := range b.stalls {
					k := [2]string{sc.Service, sc.Cause}
					acc := out[k]
					acc.Service, acc.Cause = sc.Service, sc.Cause
					acc.add(&sc)
					out[k] = acc
				}
			}
		}
		return out
	}
	check := func(want ...StallCounter) {
		t.Helper()
		win := head.Window()
		if win.SpanS != 60 {
			t.Errorf("span = %gs, want 60", win.SpanS)
		}
		if !slices.Equal(win.Stalls, want) {
			t.Errorf("window = %+v\nwant     %+v", win.Stalls, want)
		}
		ref := ringSum()
		if len(ref) != len(win.Stalls) {
			t.Errorf("window has %d cells, the ring's last %d buckets %d", len(win.Stalls), windowBuckets, len(ref))
		}
		for _, sc := range win.Stalls {
			if r := ref[[2]string{sc.Service, sc.Cause}]; r != sc {
				t.Errorf("window cell %+v, ring sum %+v", sc, r)
			}
		}
	}

	// "old" pushed 61 s ago and has since expired: it counts nowhere.
	// "gone" retired with its final push 30 s ago and still counts.
	check(cell("a", "rto", 5+2), cell("b", "zero-rwnd", 1), cell("c", "client-idle", 4))
	if win := head.Window(); win.Members != 1 {
		t.Errorf("members = %d, want 1 (only \"live\" is live)", win.Members)
	}
	// 31 s on, "gone"'s final push is 61 s old and drops out.
	now = T.Add(31 * time.Second)
	check(cell("a", "rto", 2), cell("c", "client-idle", 4))
}

// TestHandlerHeaders audits every GET endpoint for the content-type
// and cache-control contract: JSON everywhere, no-store everywhere —
// a cached copy of a live view is wrong by definition.
func TestHandlerHeaders(t *testing.T) {
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()
	defer head.Close()

	cases := []struct {
		path        string
		contentType string
	}{
		{"/fleet/members", "application/json; charset=utf-8"},
		{"/fleet/stalls", "application/json; charset=utf-8"},
		{"/fleet/services", "application/json; charset=utf-8"},
		{"/fleet/stats", "application/json; charset=utf-8"},
		{"/fleet/timeseries", "application/json; charset=utf-8"},
		{"/fleet/events", "application/json; charset=utf-8"},
		{"/dashboard", "text/html; charset=utf-8"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/healthz", "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Errorf("%s: Content-Type = %q, want %q", tc.path, got, tc.contentType)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", tc.path, got)
		}
	}

	// The SSE stream writes its headers up front; cancel the request
	// once they arrive.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/fleet/events/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("stream: Content-Type = %q, want text/event-stream", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Errorf("stream: Cache-Control = %q, want no-store", got)
	}
	cancel()
	resp.Body.Close()
}

// TestDashboardSelfContained pins the zero-dependency property: the
// embedded page must reference no external URL — no CDN scripts, no
// remote fonts, no analytics — so it renders identically on an
// air-gapped host.
func TestDashboardSelfContained(t *testing.T) {
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	page := string(body)
	for _, banned := range []string{"http://", "https://", "//cdn", "integrity=", "crossorigin", "@import"} {
		if strings.Contains(page, banned) {
			t.Errorf("dashboard references an external resource: found %q", banned)
		}
	}
	// And it is the real page, wired to the head's own endpoints.
	for _, want := range []string{"/fleet/timeseries", "/fleet/events/stream", "EventSource", "tapoctl"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestServiceFilterGuards pins the ?service= contract on /fleet/stalls
// and /fleet/timeseries: a known service narrows the response, an
// unknown one 400s by name, and a bad ?since= on /fleet/events 400s —
// the same typo-surfacing stance as the absurd-?n= guard on tapod.
func TestServiceFilterGuards(t *testing.T) {
	now := time.Unix(10_000, 0)
	head := NewHead(HeadConfig{Clock: func() time.Time { return now }})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	snap := miniSnap("m", reg.Epoch, 1, 100)
	snap.Stalls = []StallCounter{
		{Service: "alpha", Cause: "rto", Count: 3, Time: 1500 * time.Millisecond},
		{Service: "beta", Cause: "appstall", Count: 2, Time: 500 * time.Millisecond},
	}
	if resp := head.Push(snap); !resp.OK {
		t.Fatalf("push: %+v", resp)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := get("/fleet/stalls?service=alpha")
	if code != http.StatusOK {
		t.Fatalf("stalls?service=alpha: status %d", code)
	}
	var filtered struct {
		Service string         `json:"service"`
		Stalls  []StallCounter `json:"stalls"`
	}
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	if filtered.Service != "alpha" || len(filtered.Stalls) != 1 || filtered.Stalls[0].Service != "alpha" {
		t.Errorf("filtered stalls = %s", body)
	}
	if code, _ := get("/fleet/stalls?service=nope"); code != http.StatusBadRequest {
		t.Errorf("stalls?service=nope: status %d, want 400", code)
	}

	code, body = get("/fleet/timeseries?service=alpha")
	if code != http.StatusOK {
		t.Fatalf("timeseries?service=alpha: status %d", code)
	}
	var ts SeriesResponse
	if err := json.Unmarshal(body, &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Services) != 1 || ts.Services["alpha"] == nil || ts.Fleet != nil {
		t.Errorf("filtered timeseries = %s", body)
	}
	if code, _ := get("/fleet/timeseries?service=nope"); code != http.StatusBadRequest {
		t.Errorf("timeseries?service=nope: status %d, want 400", code)
	}
	if code, _ := get("/fleet/events?since=banana"); code != http.StatusBadRequest {
		t.Errorf("events?since=banana: status %d, want 400", code)
	}
}

// TestEventStreamEndToEnd is the protocol smoke the CI race suite
// runs: a real member feeds real traffic, pushes carry the stall
// digest, and an SSE client must receive a stall event end-to-end —
// then head.Close() must terminate the stream so a graceful server
// shutdown cannot hang on it.
func TestEventStreamEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	// SSE client first, so it sees events live rather than from the
	// backlog.
	stallCh := make(chan Event, 1)
	streamDone := make(chan error, 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/fleet/events/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				streamDone <- fmt.Errorf("bad SSE payload %q: %w", data, err)
				return
			}
			if ev.Type == EventStall && !sent {
				sent = true
				stallCh <- ev
			}
		}
		streamDone <- sc.Err()
	}()

	mon := newTestMonitor()
	mb, err := NewMember(MemberConfig{ID: "sse-m", Head: srv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	evs := memberEvents(workload.Services()[0], 77, 4)
	feedChunks(t, ctx, mb, evs)
	if err := mb.Close(ctx); err != nil {
		t.Fatal(err)
	}

	select {
	case ev := <-stallCh:
		if ev.Member != "sse-m" || ev.Stall == nil || ev.Stall.Cause == "" || ev.ID == 0 {
			t.Errorf("stall event incomplete: %+v", ev)
		}
	case err := <-streamDone:
		t.Fatalf("stream ended before a stall event arrived: %v", err)
	case <-ctx.Done():
		t.Fatal("timed out waiting for a stall event over SSE")
	}

	// The JSON backlog must agree: a join event and stall events are
	// retained and paginate by ID.
	er := head.Events(0)
	if len(er.Events) == 0 {
		t.Fatal("event backlog empty")
	}
	var sawJoin, sawStall, sawFinal bool
	for _, ev := range er.Events {
		switch ev.Type {
		case EventMemberJoin:
			sawJoin = true
		case EventStall:
			sawStall = true
		case EventMemberFinal:
			sawFinal = true
		}
	}
	if !sawJoin || !sawStall || !sawFinal {
		t.Errorf("backlog missing event types: join=%v stall=%v final=%v", sawJoin, sawStall, sawFinal)
	}
	mid := er.Events[len(er.Events)/2].ID
	rest := head.Events(mid)
	if len(rest.Events) == 0 || rest.Events[0].ID != mid+1 {
		t.Errorf("pagination from %d returned %d events starting at %d", mid, len(rest.Events), func() uint64 {
			if len(rest.Events) == 0 {
				return 0
			}
			return rest.Events[0].ID
		}())
	}
	// The digest accounting reached the head's stats.
	if st := head.Stats(); st.StallEvents == 0 || st.EventsPublished == 0 {
		t.Errorf("stats missing event accounting: %+v", st)
	}

	// Close must end the live stream promptly.
	head.Close()
	select {
	case err := <-streamDone:
		if err != nil {
			t.Errorf("stream ended with error after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate after head.Close")
	}
}

// TestStallEventKeepsZeroFields pushes a digest entry whose flow hash
// and duration are 0: /fleet/events must still carry both keys, since
// the dashboard formats them unconditionally.
func TestStallEventKeepsZeroFields(t *testing.T) {
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()
	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	snap := miniSnap("m", reg.Epoch, 1, 1)
	snap.Events = []StallEvent{{TimeMS: 1, Service: "web-search", FlowHash: 0}}
	if pr := postPush(t, srv.URL, encode(t, snap)); !pr.OK {
		t.Fatalf("push rejected: %+v", pr)
	}
	resp, err := http.Get(srv.URL + "/fleet/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, ev := range body.Events {
		if ev["type"] != EventStall {
			continue
		}
		st, _ := ev["stall"].(map[string]any)
		if st["flow_hash"] != 0.0 || st["duration_ms"] != 0.0 {
			t.Errorf("stall event lost a zero field: %v", ev)
		}
		return
	}
	t.Fatalf("no stall event in %v", body.Events)
}
