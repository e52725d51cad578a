package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tcpstall/internal/live"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// cfgEvents builds n outgoing data records spread across the given
// flows — plain healthy traffic, enough to admit flows and advance
// analyzers.
func cfgEvents(prefix string, flows, perFlow int) []trace.RecordEvent {
	var evs []trace.RecordEvent
	for f := 0; f < flows; f++ {
		id := fmt.Sprintf("%s-%d", prefix, f)
		for i := 0; i < perFlow; i++ {
			evs = append(evs, trace.RecordEvent{
				FlowID:  id,
				Service: "cfgsvc",
				MSS:     1460,
				Rec: trace.Record{
					T:   sim.Time(time.Duration(i) * 10 * time.Millisecond),
					Dir: trace.DirOut,
					Seg: trace.Segment{
						Seq:   uint32(1 + i*100),
						Len:   100,
						Wnd:   65535,
						Flags: packet.FlagACK | packet.FlagPSH,
					},
				},
			})
		}
	}
	return evs
}

// TestConfigPushAppliedBetweenBatches is the config downlink
// round-trip: the head changes triage mode and the per-flow record
// cap, the member applies the update at its next ingest-batch
// boundary (not mid-batch), the monitor's /config admin plane
// reflects the new values, the unknown key is ignored with a counter
// bump, and the next push reports the applied version back to the
// head.
func TestConfigPushAppliedBetweenBatches(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	headSrv := httptest.NewServer(NewHandler(head))
	defer headSrv.Close()

	mon := newTestMonitor()
	defer mon.Close()
	monSrv := httptest.NewServer(live.NewHandler(mon))
	defer monSrv.Close()

	mb, err := NewMember(MemberConfig{ID: "cfg-m", Head: headSrv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	mb.IngestBatch(cfgEvents("warm", 2, 5))
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}

	ver := head.SetConfig(map[string]any{
		SettingTriage:            "off",
		SettingMaxRecordsPerFlow: 5,
		"unknown_knob":           42,
	})

	// The downlink rides the next push response — staged, not applied:
	// nothing may change until a batch boundary.
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if !mon.TriageEnabled() || mon.MaxRecordsPerFlow() == 5 {
		t.Fatal("config applied before an ingest batch boundary")
	}
	if got := mb.Stats().ConfigVersion; got != 0 {
		t.Fatalf("config version reported before apply: %d", got)
	}

	// The next batch applies it first, then ingests under the new
	// settings.
	mb.IngestBatch(cfgEvents("post", 2, 12))
	if mon.TriageEnabled() {
		t.Error("triage still enabled after applying triage=off")
	}
	if got := mon.MaxRecordsPerFlow(); got != 5 {
		t.Errorf("max_records_per_flow = %d, want 5", got)
	}
	st := mb.Stats()
	if st.UnknownConfigKeys != 1 {
		t.Errorf("unknown config keys = %d, want 1 (unknown_knob)", st.UnknownConfigKeys)
	}
	if st.ConfigVersion != ver {
		t.Errorf("applied config version = %d, want %d", st.ConfigVersion, ver)
	}

	// The monitor's own admin plane tells the same story.
	resp, err := http.Get(monSrv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg struct {
		Runtime struct {
			MaxRecordsPerFlow int  `json:"max_records_per_flow"`
			TriageEnabled     bool `json:"triage_enabled"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Runtime.MaxRecordsPerFlow != 5 || cfg.Runtime.TriageEnabled {
		t.Errorf("/config runtime = %+v, want cap 5 and triage off", cfg.Runtime)
	}

	// The head learns the member converged from its next push.
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	members := head.Members()
	if len(members) != 1 || members[0].ConfigVersion != ver {
		t.Errorf("members = %+v, want cfg-m at config version %d", members, ver)
	}
	// And the fleet totals surface the unknown-key bump.
	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.UnknownConfigKeys != 1 {
		t.Errorf("fleet unknown_config_keys = %d, want 1", tot.UnknownConfigKeys)
	}
}

// TestConfigSampling drives the flow-granular sampler: with
// sample_one_in=4, roughly a quarter of flows survive, every record
// of a surviving flow survives with it, and the rest are counted out.
func TestConfigSampling(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	mon := newTestMonitor()
	defer mon.Close()
	mb, err := NewMember(MemberConfig{ID: "samp-m", Head: srv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	head.SetConfig(map[string]any{SettingSampleOneIn: 4})
	// Registration already carries the config downlink.
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}

	const flows, perFlow = 64, 10
	mb.IngestBatch(cfgEvents("s", flows, perFlow))
	st := mb.Stats()
	if st.SampledOut == 0 {
		t.Fatal("no records sampled out at sample_one_in=4")
	}
	if st.SampledOut%perFlow != 0 {
		t.Errorf("sampled-out count %d is not flow-granular (flows of %d records)", st.SampledOut, perFlow)
	}
	kept := uint64(flows*perFlow) - st.SampledOut
	ms := mon.Snapshot()
	if ms.Ingested != kept {
		t.Errorf("monitor ingested %d, want %d (post-sampling)", ms.Ingested, kept)
	}
	if kept == 0 || kept == flows*perFlow {
		t.Errorf("sampling kept %d of %d records — expected a strict subset", kept, flows*perFlow)
	}
	// The push reports the member-level sampling counter to the head.
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	tot, err := head.Totals()
	if err != nil {
		t.Fatal(err)
	}
	if tot.SampledOut != st.SampledOut {
		t.Errorf("fleet sampled_out = %d, want %d", tot.SampledOut, st.SampledOut)
	}

	// Turning sampling back off restores full intake.
	head.SetConfig(map[string]any{SettingSampleOneIn: 1})
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	beforeIn := mon.Snapshot().Ingested
	mb.IngestBatch(cfgEvents("t", 8, 3))
	if got := mon.Snapshot().Ingested - beforeIn; got != 24 {
		t.Errorf("post-reset batch ingested %d records, want all 24", got)
	}
}

// TestConfigSamplingRejectsUnrepresentable is the regression test for
// the sample_one_in downlink: 2^32 passes the n>1 hot-path guard but
// truncates to a zero uint32 modulus, so the old ingest path panicked
// with an integer divide by zero — remotely triggerable via config
// push. Out-of-range values must be rejected like malformed ones
// (counted, not applied), and the largest representable N must sample
// without panicking on both IngestBatch and WrapIngest.
func TestConfigSamplingRejectsUnrepresentable(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()

	mon := newTestMonitor()
	defer mon.Close()
	mb, err := NewMember(MemberConfig{ID: "ovf-m", Head: srv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	head.SetConfig(map[string]any{SettingSampleOneIn: float64(1 << 32)})
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	mb.IngestBatch(cfgEvents("a", 4, 3)) // panicked before the fix
	st := mb.Stats()
	if st.UnknownConfigKeys != 1 {
		t.Errorf("unknown config keys = %d, want 1 (2^32 sample_one_in rejected)", st.UnknownConfigKeys)
	}
	if st.SampledOut != 0 {
		t.Errorf("sampled out %d records under a rejected setting, want 0", st.SampledOut)
	}
	if got := mon.Snapshot().Ingested; got != 12 {
		t.Errorf("ingested %d, want all 12 (rejected setting must not sample)", got)
	}

	// Negative N is rejected the same way.
	head.SetConfig(map[string]any{SettingSampleOneIn: -2})
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	mb.IngestBatch(cfgEvents("b", 4, 3))
	if st = mb.Stats(); st.UnknownConfigKeys != 2 || st.SampledOut != 0 {
		t.Errorf("after negative N: unknown=%d sampled=%d, want 2/0", st.UnknownConfigKeys, st.SampledOut)
	}

	// The largest representable N applies and samples (nearly)
	// everything out — through WrapIngest, a batch of one at a time, as
	// tapod's sources do — without panicking.
	head.SetConfig(map[string]any{SettingSampleOneIn: float64(math.MaxUint32)})
	if err := mb.Push(ctx); err != nil {
		t.Fatal(err)
	}
	ingest := mb.WrapIngest(func([]trace.RecordEvent) {})
	for _, ev := range cfgEvents("c", 8, 1) {
		ingest([]trace.RecordEvent{ev})
	}
	st = mb.Stats()
	if st.UnknownConfigKeys != 2 {
		t.Errorf("max-uint32 sample_one_in miscounted as unknown: %d keys", st.UnknownConfigKeys)
	}
	if st.SampledOut == 0 {
		t.Error("sample_one_in=2^32-1 sampled nothing out of 8 flows")
	}
}
