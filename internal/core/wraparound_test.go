package core

import (
	"fmt"
	"testing"
	"time"

	"tcpstall/internal/tcpsim"
)

// summarize flattens the analysis facts that must be invariant under a
// sequence-space shift: the byte/packet accounting and the full stall
// list (cause, sub-cause, timing).
func summarize(a *FlowAnalysis) string {
	s := fmt.Sprintf("data=%dB/%dp retrans=%dp zerownd=%v stalls=%d",
		a.DataBytes, a.DataPackets, a.RetransPackets,
		a.ZeroRwndSeen, len(a.Stalls))
	for _, st := range a.Stalls {
		s += fmt.Sprintf("\n  %v/%v start=%v dur=%v", st.Cause, st.RetransCause, st.Start, st.Duration)
	}
	return s
}

// wrapISNs puts both ISNs close enough to 2^32 that the
// handshake-relative streams wrap within the first handful of segments.
func wrapISNs(c *tcpsim.ConnConfig) {
	c.ServerISN = 0xFFFFF000 // wraps ~4 KB into the response
	c.ClientISN = 0xFFFFFF80 // wraps during the first request
}

// wrapCases are the stall-producing scenarios replayed at ISN 0 and
// under wrapISNs.
var wrapCases = []struct {
	name string
	sc   scenario
}{
	{"clean", scenario{seed: 101, reqs: []tcpsim.Request{{Size: 100_000}}}},
	{"data-unavailable", scenario{seed: 102, reqs: []tcpsim.Request{
		{Size: 20_000, HeadDelay: 400 * time.Millisecond},
	}}},
	{"client-idle", scenario{seed: 103, reqs: []tcpsim.Request{
		{Size: 20_000},
		{IdleBefore: 500 * time.Millisecond, Size: 20_000},
	}}},
	// Drop the 3rd distinct data segment twice: with the server ISN
	// at 0xFFFFF000 the loss, the SACK blocks, and the RTO-driven
	// retransmission all straddle the 2^32 boundary.
	{"retrans-across-wrap", scenario{seed: 104,
		reqs:     []tcpsim.Request{{Size: 60_000}},
		dropPlan: map[int]int{3: 2},
	}},
}

// TCP sequence numbers are modular; TAPO must produce the same
// analysis whether a flow's ISN is 0 or a few kilobytes below 2^32 so
// that the transfer crosses the wrap. Each case replays a
// stall-producing scenario twice — identical seed and dynamics, only
// the ISNs shifted — and requires byte-for-byte identical summaries.
// With the analyzer's raw uint32 comparisons reinstated (pre-seqspace
// behaviour), post-wrap segments compare below maxEnd, are miscounted
// as retransmissions, and this test fails.
func TestAnalysisInvariantUnderISNWrap(t *testing.T) {
	for _, tc := range wrapCases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.sc
			base.mutate = nil
			got0 := summarize(base.run(t))

			shifted := tc.sc
			shifted.mutate = wrapISNs
			got1 := summarize(shifted.run(t))

			if got0 != got1 {
				t.Errorf("analysis diverged under ISN wrap\nISN 0:\n%s\nISN near 2^32:\n%s", got0, got1)
			}
		})
	}
}

// A wrapped flow must still account every payload byte exactly once:
// DataBytes is computed from unwrapped offsets, so a retransmission
// whose original sat below the wrap and whose copy sits above it must
// not double-count.
func TestDataBytesExactAcrossWrap(t *testing.T) {
	a := scenario{
		seed:     105,
		reqs:     []tcpsim.Request{{Size: 60_000}},
		dropPlan: map[int]int{3: 2},
		mutate: func(c *tcpsim.ConnConfig) {
			c.ServerISN = 0xFFFFF000
		},
	}.run(t)
	if a.DataBytes != 60_000 {
		t.Errorf("DataBytes = %d, want 60000", a.DataBytes)
	}
	if a.RetransPackets == 0 {
		t.Error("expected retransmissions across the wrap")
	}
}
