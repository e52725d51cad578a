//go:build verdicthash

package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// TestVerdictHash is the byte-identity harness for changes to the
// analyzer or the flight recorder that must not move a single output
// byte. It feeds generated flows (seeds 1–4 × every service × native
// and healthy twin × 150 flows) record by record through a recorder
// under three flight configs and hashes, per config, everything a
// consumer can observe: the analysis JSON, each LiveStall with the
// provisional evidence as it stands at close, every ring event, every
// settled evidence entry and the drop counters. The committed digests
// were computed before the recorder's ring and entries were resized;
// a mismatch means some verdict, evidence or event byte changed.
//
// It is slow (tens of seconds), so it sits behind a build tag:
//
//	go test -tags verdicthash -run TestVerdictHash ./internal/core
func TestVerdictHash(t *testing.T) {
	configs := []struct {
		name   string
		cfg    flight.Config
		events int // events retained at flush, summed over flows
		sha    string
	}{
		// The default ring (256) wraps on most long flows.
		{"default", flight.Config{},
			479196, "ad593d7985eb4351e0c182e04ae0d6e896c56ebb6075b6d3ccebe158e76775d0"},
		// A ring and evidence store that never drop.
		{"unbounded", flight.Config{RingSize: 1 << 20, MaxStalls: 1 << 20},
			3101357, "616105c1fbdf4ecec5c6b37ec123935685230cfe965db71802d3ee93715e986b"},
		// A ring that wraps at a non-power-of-two size, a narrow
		// window and an evidence store that evicts.
		{"tight", flight.Config{RingSize: 100, WindowK: 3, MaxStalls: 4},
			241900, "541f4ffa3ffc7674037ff2105e6cd62acb21e059c2d0b712cf9273d7a627e5f9"},
	}
	const wantFlows, wantStalls = 3600, 4098

	var flows []*trace.Flow
	for seed := int64(1); seed <= 4; seed++ {
		for _, base := range workload.Services() {
			for _, svc := range []workload.Service{base, workload.Healthy(base)} {
				for _, fr := range workload.Generate(svc, seed, workload.GenOptions{Flows: 150}) {
					flows = append(flows, fr.Flow)
				}
			}
		}
	}
	if len(flows) != wantFlows {
		t.Fatalf("%d flows, want %d", len(flows), wantFlows)
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			stalls, events := 0, 0
			for _, f := range flows {
				s, e := hashFlow(t, h, f, c.cfg)
				stalls += s
				events += e
			}
			got := hex.EncodeToString(h.Sum(nil))
			if stalls != wantStalls || events != c.events {
				t.Errorf("%d stalls, %d retained events; want %d, %d", stalls, events, wantStalls, c.events)
			}
			if got != c.sha {
				t.Errorf("sha256 = %s\n              want %s", got, c.sha)
			}
		})
	}
}

// hashFlow feeds one flow and writes its observable output to h. It
// reports the flow's stall count and the events its ring retains.
func hashFlow(t *testing.T, h hash.Hash, f *trace.Flow, cfg flight.Config) (stalls, events int) {
	put := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	inc := core.NewIncremental(core.Config{})
	inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	rec := flight.NewRecorder(cfg)
	inc.SetRecorder(rec)
	inc.OnStall = func(ls core.LiveStall) {
		put(ls)
		if ev := rec.Evidence(ls.Stall.ID); ev != nil {
			put(ev.JSON())
		}
	}
	for i := range f.Records {
		inc.Feed(&f.Records[i])
	}
	a := inc.Flush()
	put(a)
	evs := rec.Events()
	for _, e := range evs {
		put(e.JSON())
	}
	for _, ev := range rec.Evidences() {
		put(ev.JSON())
	}
	fmt.Fprintf(h, "drops %d %d\n", rec.EventDrops(), rec.EvidenceDrops())
	return len(a.Stalls), len(evs)
}
