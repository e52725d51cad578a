package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

// newTestMonitor builds a monitor in full member trim (triage and
// flight configured, so the head can toggle both).
func newTestMonitor() *live.Monitor {
	m := live.New(live.Config{
		Shards: 2,
		Triage: &triage.Config{},
		Flight: &flight.Config{},
	})
	m.Start()
	return m
}

// memberEvents renders one member's deterministic replay traffic.
func memberEvents(svc workload.Service, seed int64, flows int) []trace.RecordEvent {
	var evs []trace.RecordEvent
	for _, fr := range workload.Generate(svc, seed, workload.GenOptions{Flows: flows}) {
		f := fr.Flow
		for i := range f.Records {
			evs = append(evs, trace.RecordEvent{
				FlowID:   f.ID,
				Service:  f.Service,
				MSS:      f.MSS,
				InitRwnd: f.InitRwnd,
				Rec:      f.Records[i],
			})
		}
	}
	return evs
}

// feedChunks pushes events through the member ingest path in
// fixed-size batches, with a protocol push every few batches so the
// run exercises mid-stream snapshots.
func feedChunks(t *testing.T, ctx context.Context, mb *Member, evs []trace.RecordEvent) {
	t.Helper()
	const chunk = 512
	for i := 0; i < len(evs); i += chunk {
		end := i + chunk
		if end > len(evs) {
			end = len(evs)
		}
		mb.IngestBatch(evs[i:end])
		if (i/chunk)%4 == 3 {
			if err := mb.Push(ctx); err != nil {
				t.Fatalf("mid-stream push: %v", err)
			}
		}
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestDifferentialReplayByteIdentical is the acceptance differential:
// three members replay deterministic workloads against one head, one
// member restarts mid-run, a delayed duplicate and a stale-epoch push
// are injected — and the head's fleet totals must still be
// byte-identical to Aggregate over the members' final reports.
func TestDifferentialReplayByteIdentical(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	svcs := workload.Services()
	var finals []Snapshot

	// Member m0: restarts mid-run. First incarnation takes the front
	// half of the replay.
	ev0 := memberEvents(svcs[0], 101, 4)
	mon0a := newTestMonitor()
	m0a, err := NewMember(MemberConfig{ID: "m0", Head: srv.URL, Monitor: mon0a})
	if err != nil {
		t.Fatal(err)
	}
	if err := m0a.Register(ctx); err != nil {
		t.Fatal(err)
	}
	epoch0a := m0a.Stats().Epoch
	feedChunks(t, ctx, m0a, ev0[:len(ev0)/2])
	if err := m0a.Push(ctx); err != nil {
		t.Fatal(err)
	}

	// Delayed duplicate: replay an already-used sequence number. The
	// head must reject it and totals must not move.
	before, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	dup := m0a.Snapshot()
	dup.Seq = 1
	if resp := head.Push(&dup); resp.OK || resp.Error != ErrDuplicateSeq {
		t.Fatalf("duplicate push: got %+v, want duplicate_seq reject", resp)
	}
	after, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, before), marshal(t, after)) {
		t.Fatal("rejected duplicate push changed fleet totals")
	}

	// Restart: close (final push), then a fresh incarnation — new
	// monitor, same member ID — takes the back half.
	if err := m0a.Close(ctx); err != nil {
		t.Fatalf("close m0a: %v", err)
	}
	finals = append(finals, m0a.Snapshot())

	mon0b := newTestMonitor()
	m0b, err := NewMember(MemberConfig{ID: "m0", Head: srv.URL, Monitor: mon0b})
	if err != nil {
		t.Fatal(err)
	}
	if err := m0b.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if e := m0b.Stats().Epoch; e <= epoch0a {
		t.Fatalf("restart epoch = %d, want > %d", e, epoch0a)
	}
	// Stale-epoch push from the dead incarnation, out of order.
	stale := m0b.Snapshot()
	stale.Epoch = epoch0a
	stale.Seq = 99
	if resp := head.Push(&stale); resp.OK || resp.Error != ErrStaleEpoch {
		t.Fatalf("stale push: got %+v, want stale_epoch reject", resp)
	}
	feedChunks(t, ctx, m0b, ev0[len(ev0)/2:])

	// Members m1, m2: plain straight-through replays.
	rest := []*Member{m0b}
	for i := 1; i <= 2; i++ {
		mon := newTestMonitor()
		mb, err := NewMember(MemberConfig{ID: fmt.Sprintf("m%d", i), Head: srv.URL, Monitor: mon})
		if err != nil {
			t.Fatal(err)
		}
		if err := mb.Register(ctx); err != nil {
			t.Fatal(err)
		}
		feedChunks(t, ctx, mb, memberEvents(svcs[i%len(svcs)], int64(200+i), 4))
		rest = append(rest, mb)
	}
	for _, mb := range rest {
		if err := mb.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		finals = append(finals, mb.Snapshot())
	}

	want, err := Aggregate(finals...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	wantJS, gotJS := marshal(t, want), marshal(t, got)
	if !bytes.Equal(wantJS, gotJS) {
		t.Errorf("fleet totals diverged from the sum of final member reports\n head: %s\n sum:  %s", gotJS, wantJS)
	}
	if got.Epochs != 4 {
		t.Errorf("epochs = %d, want 4 (3 members + 1 restart)", got.Epochs)
	}
	if got.Ingested == 0 || got.FlowsSeen == 0 {
		t.Errorf("empty replay: %+v", got)
	}

	st := head.Stats()
	if st.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", st.Restarts)
	}
	if st.FinalPushes != 4 {
		t.Errorf("final pushes = %d, want 4", st.FinalPushes)
	}
	if st.Rejects[ErrDuplicateSeq] != 1 || st.Rejects[ErrStaleEpoch] != 1 {
		t.Errorf("rejects = %v, want one duplicate_seq and one stale_epoch", st.Rejects)
	}
	if st.MergeCount == 0 || st.MergeP99MS <= 0 {
		t.Errorf("merge latency not sampled: %+v", st)
	}
}

// miniSnap builds the smallest valid wire snapshot.
func miniSnap(id string, epoch, seq, ingested uint64) *Snapshot {
	return &Snapshot{
		Version:  WireVersion,
		MemberID: id,
		Epoch:    epoch,
		Seq:      seq,
		Counters: Counters{
			Ingested:    ingested,
			DurationsMS: stats.NewHistogram(live.DurationBoundsMS).State(),
		},
	}
}

// postPush replays a raw push body over HTTP — the transport-level
// out-of-order duplicate.
func postPush(t *testing.T, url string, body []byte) PushResponse {
	t.Helper()
	resp, err := http.Post(url+"/fleet/push", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PushResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestRestartEpochSemantics is the regression test for member restart:
// re-registration yields a strictly fresh epoch, the head discards
// stale-epoch snapshots (including byte-exact replays of old pushes),
// and totals count every epoch exactly once.
func TestRestartEpochSemantics(t *testing.T) {
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	register := func() uint64 {
		body := marshal(t, RegisterRequest{Version: WireVersion, MemberID: "m"})
		resp, err := http.Post(srv.URL+"/fleet/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RegisterResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr.Epoch
	}

	e1 := register()
	push1 := marshal(t, miniSnap("m", e1, 1, 100))
	if pr := postPush(t, srv.URL, push1); !pr.OK {
		t.Fatalf("push 1: %+v", pr)
	}
	if pr := postPush(t, srv.URL, marshal(t, miniSnap("m", e1, 2, 150))); !pr.OK {
		t.Fatalf("push 2: %+v", pr)
	}

	e2 := register()
	if e2 <= e1 {
		t.Fatalf("re-register epoch = %d, want > %d", e2, e1)
	}

	// Out-of-order duplicate from the dead epoch, replayed byte for
	// byte off the wire: must be discarded as stale, not re-counted.
	if pr := postPush(t, srv.URL, push1); pr.OK || pr.Error != ErrStaleEpoch {
		t.Fatalf("stale replay: got %+v, want stale_epoch reject", pr)
	}

	if pr := postPush(t, srv.URL, marshal(t, miniSnap("m", e2, 1, 30))); !pr.OK {
		t.Fatalf("push on fresh epoch: %+v", pr)
	}
	// Duplicate within the live epoch.
	if pr := postPush(t, srv.URL, marshal(t, miniSnap("m", e2, 1, 30))); pr.OK || pr.Error != ErrDuplicateSeq {
		t.Fatalf("duplicate seq: got %+v, want duplicate_seq reject", pr)
	}

	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 contributes its LAST snapshot (150), epoch 2 its own
	// (30); the stale replay of 100 must not resurrect.
	if tot.Ingested != 180 {
		t.Errorf("ingested = %d, want 180 (150 retired + 30 live)", tot.Ingested)
	}
	if tot.Epochs != 2 {
		t.Errorf("epochs = %d, want 2", tot.Epochs)
	}
}

// TestExpiryRetiresSilentMembers drives the stale-member sweep with an
// injected clock.
func TestExpiryRetiresSilentMembers(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	head := NewHead(HeadConfig{
		Expiry: 10 * time.Second,
		Clock:  func() time.Time { return now },
	})

	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := head.Push(miniSnap("m", reg.Epoch, 1, 42)); !resp.OK {
		t.Fatalf("push: %+v", resp)
	}

	now = now.Add(11 * time.Second)
	st := head.Stats()
	if st.Expiries != 1 || st.LiveMembers != 0 {
		t.Fatalf("after silence: expiries=%d live=%d, want 1/0", st.Expiries, st.LiveMembers)
	}
	// The expired epoch's state is retained, frozen.
	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Ingested != 42 || tot.Epochs != 1 {
		t.Errorf("retired totals = %+v, want ingested 42 over 1 epoch", tot)
	}
	// A push from the expired epoch is stale; re-registering heals.
	if resp := head.Push(miniSnap("m", reg.Epoch, 2, 50)); resp.OK || resp.Error != ErrStaleEpoch {
		t.Fatalf("push after expiry: %+v, want stale_epoch", resp)
	}
	reg2, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := head.Push(miniSnap("m", reg2.Epoch, 1, 8)); !resp.OK {
		t.Fatalf("push after re-register: %+v", resp)
	}
	tot, err = head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Ingested != 50 || tot.Epochs != 2 {
		t.Errorf("healed totals = %+v, want ingested 50 over 2 epochs", tot)
	}
}

// TestExpiredMemberKeepsUnheardRecords: a member the head expired —
// partitioned past Expiry — re-registers and rebases on its last
// ACCEPTED push, not on its state at re-registration, so the records
// it ingested while the head could not hear it still reach the fleet
// totals. (That nothing retired is reported twice is pinned by
// TestDifferentialReplayByteIdentical.)
func TestExpiredMemberKeepsUnheardRecords(t *testing.T) {
	var now atomic.Int64 // read by the handler goroutine
	now.Store(time.Unix(1_000_000, 0).UnixNano())
	head := NewHead(HeadConfig{
		Expiry: 10 * time.Second,
		Clock:  func() time.Time { return time.Unix(0, now.Load()) },
	})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()
	ctx := context.Background()
	mb, err := NewMember(MemberConfig{ID: "m", Head: srv.URL, Monitor: newTestMonitor()})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(evs []trace.RecordEvent) {
		for len(evs) > 0 {
			n := min(512, len(evs))
			mb.IngestBatch(evs[:n])
			evs = evs[n:]
		}
	}
	evs := memberEvents(workload.Services()[0], 7, 6)
	third := len(evs) / 3

	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	ingest(evs[:third])
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	ingest(evs[third : 2*third]) // the head never hears these pushed
	now.Add(int64(11 * time.Second))
	if err := mb.Push(ctx); err != nil { // stale_epoch, re-register, retry
		t.Fatal(err)
	}
	ingest(evs[2*third:])
	if err := mb.Close(ctx); err != nil {
		t.Fatal(err)
	}

	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Ingested != uint64(len(evs)) {
		t.Errorf("fleet ingested = %d, want %d", tot.Ingested, len(evs))
	}
	if st := head.Stats(); st.Expiries != 1 || st.Restarts != 1 || tot.Epochs != 2 {
		t.Errorf("expiries=%d restarts=%d epochs=%d, want 1/1/2", st.Expiries, st.Restarts, tot.Epochs)
	}
}

// TestPushRejectsBadSnapshots covers the protocol's input validation.
func TestPushRejectsBadSnapshots(t *testing.T) {
	head := NewHead(HeadConfig{})
	if resp := head.Push(miniSnap("ghost", 1, 1, 1)); resp.OK || resp.Error != ErrUnknownMember {
		t.Errorf("unregistered push: %+v, want unknown_member", resp)
	}
	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	wrongVer := miniSnap("m", reg.Epoch, 1, 1)
	wrongVer.Version = WireVersion + 1
	if resp := head.Push(wrongVer); resp.OK || resp.Error != ErrBadSnapshot {
		t.Errorf("wrong version: %+v, want bad_snapshot", resp)
	}
	// A structurally broken histogram payload fails the merge and is
	// dropped rather than poisoning totals.
	broken := miniSnap("m", reg.Epoch, 1, 1)
	broken.DurationsMS = stats.HistogramState{}
	if resp := head.Push(broken); resp.OK || resp.Error != ErrBadSnapshot {
		t.Errorf("broken histogram: %+v, want bad_snapshot", resp)
	}
	if _, err := head.Totals(); err != nil {
		t.Errorf("totals poisoned by rejected snapshot: %v", err)
	}
	// Cell lists are sorted sets on the wire; the fold rejects disorder
	// and duplicates instead of summing them, and a negative summary
	// count is corrupt. None of them may move the totals.
	before, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(svc, cause string) StallCounter {
		return StallCounter{Service: svc, Cause: cause, Count: 1, Seconds: 0.5}
	}
	for name, mutate := range map[string]func(*Snapshot){
		"unsorted stall cells": func(s *Snapshot) {
			s.Stalls = []StallCounter{cell("web", "zero-rwnd"), cell("web", "pkt-delay")}
		},
		"duplicated retrans cell": func(s *Snapshot) {
			rc := RetransCounter{Subcause: "double", Count: 1, Seconds: 1}
			s.Retrans = []RetransCounter{rc, rc}
		},
		"unsorted window cells": func(s *Snapshot) {
			s.WindowStalls = []StallCounter{cell("web", "pkt-delay"), cell("cdn", "pkt-delay")}
		},
		"negative summary count": func(s *Snapshot) {
			s.IngestBatchSizes = stats.SummaryState{N: -1}
		},
	} {
		bad := miniSnap("m", reg.Epoch, 1, 1)
		mutate(bad)
		if resp := head.Push(bad); resp.OK || resp.Error != ErrBadSnapshot {
			t.Errorf("%s: %+v, want bad_snapshot", name, resp)
		}
		after, err := head.Totals()
		if err != nil {
			t.Fatalf("%s: totals poisoned: %v", name, err)
		}
		if !bytes.Equal(marshal(t, before), marshal(t, after)) {
			t.Errorf("%s: rejected push changed totals", name)
		}
	}
	if _, err := head.Register(RegisterRequest{Version: WireVersion + 1, MemberID: "x"}); err == nil {
		t.Error("version-mismatched registration accepted")
	}
	if _, err := head.Register(RegisterRequest{Version: WireVersion}); err == nil {
		t.Error("empty member_id registration accepted")
	}
}

// TestBadFinalPushLeavesHeadStateUnchanged is the regression test for
// a rejected Final push: the head used to retire the snapshot BEFORE
// validating its payload, so one bad final push poisoned h.retired and
// every Totals() call — /fleet/stalls, /fleet/services, /metrics —
// failed forever. A rejected push must leave head state untouched: the
// previous good snapshot keeps contributing, the seq is not burned,
// the epoch stays live, and no accepted-push counters move.
func TestBadFinalPushLeavesHeadStateUnchanged(t *testing.T) {
	head := NewHead(HeadConfig{})
	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := head.Push(miniSnap("m", reg.Epoch, 1, 100)); !resp.OK {
		t.Fatalf("good push: %+v", resp)
	}
	before, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}

	bad := miniSnap("m", reg.Epoch, 2, 140)
	bad.Final = true
	bad.DurationsMS = stats.HistogramState{Bounds: []float64{1, 2}} // counts missing
	if resp := head.Push(bad); resp.OK || resp.Error != ErrBadSnapshot {
		t.Fatalf("bad final push: %+v, want bad_snapshot", resp)
	}

	after, err := head.Totals()
	if err != nil {
		t.Fatalf("totals bricked by a rejected final push: %v", err)
	}
	if !bytes.Equal(marshal(t, before), marshal(t, after)) {
		t.Errorf("rejected final push changed totals\n before: %s\n after:  %s", marshal(t, before), marshal(t, after))
	}
	st := head.Stats()
	if st.Pushes != 1 || st.FinalPushes != 0 {
		t.Errorf("pushes=%d finals=%d after a rejected final, want 1/0", st.Pushes, st.FinalPushes)
	}
	if st.LiveMembers != 1 {
		t.Errorf("live members = %d, want 1 (rejected final must not retire the epoch)", st.LiveMembers)
	}
	if st.Rejects[ErrBadSnapshot] != 1 {
		t.Errorf("rejects = %v, want one bad_snapshot", st.Rejects)
	}

	// The epoch is fully usable: the same seq retries with a good
	// payload, and a good final retires cleanly.
	if resp := head.Push(miniSnap("m", reg.Epoch, 2, 150)); !resp.OK {
		t.Fatalf("retry after rejected payload: %+v", resp)
	}
	good := miniSnap("m", reg.Epoch, 3, 160)
	good.Final = true
	if resp := head.Push(good); !resp.OK {
		t.Fatalf("good final: %+v", resp)
	}
	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Ingested != 160 || tot.Epochs != 1 {
		t.Errorf("totals = ingested %d over %d epochs, want 160 over 1", tot.Ingested, tot.Epochs)
	}
}

// TestRetiredEpochCompaction pins that dead epochs fold into the
// compacted running total instead of accumulating forever — a flapping
// member must not grow head memory or per-push merge cost without
// bound — and that compaction changes no bits: the head's totals stay
// byte-identical to a from-scratch Aggregate over every epoch's last
// snapshot.
func TestRetiredEpochCompaction(t *testing.T) {
	head := NewHead(HeadConfig{})
	const cycles = 50
	var all []Snapshot
	for i := 0; i < cycles; i++ {
		reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "flappy"})
		if err != nil {
			t.Fatal(err)
		}
		s := miniSnap("flappy", reg.Epoch, 1, 10)
		s.Final = i%2 == 1 // retire half by final push, half by re-registration
		if resp := head.Push(s); !resp.OK {
			t.Fatalf("cycle %d push: %+v", i, resp)
		}
		all = append(all, *s)
	}
	head.mu.Lock()
	pending := len(head.retired)
	folded := head.compacted.Epochs
	head.mu.Unlock()
	if pending != 0 {
		t.Errorf("retired backlog = %d snapshots, want 0 (a single flapping member compacts fully)", pending)
	}
	if folded != cycles {
		t.Errorf("compacted epochs = %d, want %d", folded, cycles)
	}
	got, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Aggregate(all...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Errorf("compacted totals diverged from full aggregate\n head: %s\n sum:  %s", marshal(t, got), marshal(t, want))
	}
}

// TestAggregateEmptyMatchesIdleHead pins that a head that has heard
// nothing and an Aggregate over nothing render identical totals.
func TestAggregateEmptyMatchesIdleHead(t *testing.T) {
	head := NewHead(HeadConfig{})
	got, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Errorf("idle head totals %s != empty aggregate %s", marshal(t, got), marshal(t, want))
	}
}
