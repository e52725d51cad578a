// Round-trip consistency between the direct and pcap analysis
// paths. This lives in the external test package because it drives
// the workload generator, which (via ground-truth recording) imports
// core itself.
package core_test

import (
	"bytes"
	"math"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// Analyzing a flow and analyzing its pcap round trip must agree: the
// classifier sees the same world through both paths (timestamps
// differ only at sub-ms resolution, which the stall taxonomy ignores
// at these scales).
func TestPcapRoundTripAnalysisConsistency(t *testing.T) {
	res := workload.Generate(workload.SoftwareDownload(), 31, workload.GenOptions{Flows: 25})
	var flows []*trace.Flow
	for _, r := range res {
		if r.Flow != nil && r.Metrics.Done {
			flows = append(flows, r.Flow)
		}
	}
	if len(flows) < 20 {
		t.Fatalf("only %d flows", len(flows))
	}
	var buf bytes.Buffer
	if err := trace.ExportPcap(&buf, flows, trace.ExportConfig{}); err != nil {
		t.Fatal(err)
	}
	imported, err := trace.ImportPcap(&buf, trace.ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(flows) {
		t.Fatalf("imported %d of %d flows", len(imported), len(flows))
	}
	// Imported flows lose their IDs; match by record count + bytes.
	type key struct {
		recs  int
		bytes int64
	}
	direct := map[key][]*core.FlowAnalysis{}
	for _, fl := range flows {
		a := core.Analyze(fl, core.DefaultConfig())
		k := key{len(fl.Records), fl.DataBytes()}
		direct[k] = append(direct[k], a)
	}
	// RFC 7323 timestamps quantize to millisecond ticks in the pcap,
	// so RTT samples (and hence the min(2·SRTT, RTO) threshold) shift
	// slightly: gaps sitting at the boundary may (dis)appear in
	// either representation — exactly as between two real captures
	// of the same connection at different clock resolutions. The
	// classification of the stalls detected in both must agree, so we
	// allow per-cause drift of 1 and total drift of 3.
	matched := 0
	for _, fl := range imported {
		a := core.Analyze(fl, core.DefaultConfig())
		k := key{len(fl.Records), fl.DataBytes()}
		cands := direct[k]
		if len(cands) == 0 {
			t.Errorf("no direct analysis matches imported flow %s (%v)", fl.ID, k)
			continue
		}
		var match *core.FlowAnalysis
		for _, d := range cands {
			if closeRetransMix(a, d) && sameStructuralMix(a, d) {
				match = d
				break
			}
		}
		if match == nil {
			t.Errorf("flow %s: stall mix diverges between direct and pcap paths\n direct: %v\n import: %v",
				fl.ID, mixOf(cands[0]), mixOf(a))
			continue
		}
		// The capture's clock starts at the first record and the
		// exported timestamp clock at the simulator's zero; mapping one
		// onto the other leaves only the millisecond tick quantization.
		if d := math.Abs(a.AvgRTT() - match.AvgRTT()); d > 1 {
			t.Errorf("flow %s: mean RTT %.3f ms through the pcap, %.3f ms direct", fl.ID, a.AvgRTT(), match.AvgRTT())
		}
		matched++
	}
	if matched < len(imported)*9/10 {
		t.Errorf("only %d/%d flows matched", matched, len(imported))
	}
}

// sameStructuralMix compares the timing-insensitive causes (server
// and client side): unlike packet-delay stalls, these ride on
// sequence/window analysis and must survive the round trip exactly.
func sameStructuralMix(a, b *core.FlowAnalysis) bool {
	count := func(x *core.FlowAnalysis) map[core.Cause]int {
		m := map[core.Cause]int{}
		for _, st := range x.Stalls {
			switch st.Cause {
			case core.CauseDataUnavailable, core.CauseResourceConstraint,
				core.CauseClientIdle, core.CauseZeroWindow:
				m[st.Cause]++
			}
		}
		return m
	}
	ma, mb := count(a), count(b)
	for k := range mb {
		if _, ok := ma[k]; !ok {
			ma[k] = 0
		}
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// closeRetransMix compares the timeout-retransmission stall multisets
// allowing a drift of one event per cause (boundary effects of the
// millisecond timestamp resolution).
func closeRetransMix(a, b *core.FlowAnalysis) bool {
	ra, rb := map[core.RetransCause]int{}, map[core.RetransCause]int{}
	for _, st := range a.Stalls {
		if st.Cause == core.CauseTimeoutRetrans {
			ra[st.RetransCause]++
		}
	}
	for _, st := range b.Stalls {
		if st.Cause == core.CauseTimeoutRetrans {
			rb[st.RetransCause]++
		}
	}
	for k := range rb {
		if _, ok := ra[k]; !ok {
			ra[k] = 0
		}
	}
	for k, v := range ra {
		if absInt(rb[k]-v) > 1 {
			return false
		}
	}
	return true
}

func mixOf(a *core.FlowAnalysis) map[string]int {
	m := map[string]int{}
	for _, st := range a.Stalls {
		k := st.Cause.String()
		if st.Cause == core.CauseTimeoutRetrans {
			k += "/" + st.RetransCause.String()
		}
		m[k]++
	}
	return m
}
