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
// under three flight configs and keeps two digests per config:
//
//   - verdict: the analysis JSON, each LiveStall with its evidence as
//     it stands when the stall settles, every evidence entry at flush
//     and the evidence-drop count — everything a stall's consumer
//     reads;
//   - trail: the events the recorder's window still holds at flush —
//     what /debug/flows/{id}/trace adds on top.
//
// The verdict digests were computed when stalls began to be published
// once, at settlement, which left the trail digests as they were; a
// mismatch means some verdict or evidence byte changed.
//
// It is slow (tens of seconds), so it sits behind a build tag:
//
//	go test -tags verdicthash -run TestVerdictHash ./internal/core
func TestVerdictHash(t *testing.T) {
	configs := []struct {
		name           string
		cfg            flight.Config
		events         int // trail events held at flush, summed over flows
		verdict, trail string
	}{
		{"default", flight.Config{},
			59288,
			"430eecdbb2a8deb49a4af1e7f49d57559a3c6f0419e48aa82d0968f002fb8aa2",
			"f6a33f238ece247e4450d3871aac0e6e93b3a33c6dec8a5723fdfd31b3cc5abd"},
		// An evidence store that never drops.
		{"unbounded", flight.Config{MaxStalls: 1 << 20},
			59288,
			"e70bbecd593e26c46a241c9605c1ac49f764bc7b7bedba98eb964b73de9878cb",
			"f6a33f238ece247e4450d3871aac0e6e93b3a33c6dec8a5723fdfd31b3cc5abd"},
		// A narrow window and an evidence store that evicts.
		{"tight", flight.Config{WindowK: 3, MaxStalls: 4},
			33103,
			"7e3fe84e73ec91c49df1b1f70a478a3ae423f54d87b74741e3221e6f8db777e0",
			"7897dff6d26f0e6674430f254a337de6c79b3d5cfa1826a0ac48bfdb91a745ce"},
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
			verdict, trail := sha256.New(), sha256.New()
			stalls, events := 0, 0
			for _, f := range flows {
				s, e := hashFlow(t, verdict, trail, f, c.cfg)
				stalls += s
				events += e
			}
			if stalls != wantStalls || events != c.events {
				t.Errorf("%d stalls, %d trail events; want %d, %d", stalls, events, wantStalls, c.events)
			}
			if got := hex.EncodeToString(verdict.Sum(nil)); got != c.verdict {
				t.Errorf("verdict sha256 = %s\n                      want %s", got, c.verdict)
			}
			if got := hex.EncodeToString(trail.Sum(nil)); got != c.trail {
				t.Errorf("trail sha256 = %s\n                    want %s", got, c.trail)
			}
		})
	}
}

// hashFlow feeds one flow and writes its verdicts to verdict and its
// recorder's trail to trail. It reports the flow's stall count and
// the events the trail holds at flush.
func hashFlow(t *testing.T, verdict, trail hash.Hash, f *trace.Flow, cfg flight.Config) (stalls, events int) {
	put := func(h hash.Hash, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	// put(a) hashes the whole FlowAnalysis, per-ACK series included,
	// so the harness keeps them, as every analysis did when the
	// digests were computed.
	inc := core.NewIncremental(core.Config{PerACKSeries: true})
	inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	rec := flight.NewRecorder(cfg)
	inc.SetRecorder(rec)
	inc.OnStall = func(ls core.LiveStall) {
		// LiveStall once carried the stall ID a second time, as Index;
		// the digests were frozen with it, so the harness puts it back.
		put(verdict, struct {
			core.LiveStall
			Index int
		}{ls, ls.Stall.ID})
		if ev := rec.Evidence(ls.Stall.ID); ev != nil {
			put(verdict, ev.JSON())
		}
	}
	for i := range f.Records {
		inc.Feed(&f.Records[i])
	}
	a := inc.Flush()
	put(verdict, a)
	for _, ev := range rec.Evidences() {
		put(verdict, ev.JSON())
	}
	fmt.Fprintf(verdict, "evidence drops %d\n", rec.EvidenceDrops())
	evs := rec.Events()
	for _, e := range evs {
		put(trail, e.JSON())
	}
	return len(a.Stalls), len(evs)
}
