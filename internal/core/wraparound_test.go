package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
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

// shiftTSClock returns a copy of fl with the server's timestamp clock
// remapped through f: every TSVal the server sends and every TSEcr
// echoing one. Zero stays zero, since it means "no timestamp".
func shiftTSClock(fl *trace.Flow, f func(sim.Time) sim.Time) *trace.Flow {
	out := *fl
	out.Records = slices.Clone(fl.Records)
	for i := range out.Records {
		r := &out.Records[i]
		ts := &r.Seg.TSEcr
		if r.Dir == trace.DirOut {
			ts = &r.Seg.TSVal
		}
		if *ts != 0 {
			*ts = f(*ts)
		}
	}
	return &out
}

// tsWrap is the span of a 32-bit millisecond timestamp clock.
const tsWrap = sim.Time(1<<32) * sim.Time(time.Millisecond)

// A capture's clock and a connection's timestamp clock start apart:
// Linux randomises each connection's TSval offset, and the counter
// wraps every 2^32 ticks. Each wrapCase is analysed with the server's
// timestamp clock shifted back 3 ms, forward 10 s and 1000 h (the
// analysis must be identical, RTT samples included), and shifted so
// it wraps after the server's fourth timestamped segment (the stalls
// must be identical: samples past the wrap are discarded, so the RTT
// estimate may differ, but it must not turn to days).
func TestAnalysisInvariantUnderTSOffset(t *testing.T) {
	for _, tc := range wrapCases {
		t.Run(tc.name, func(t *testing.T) {
			fl := tc.sc.runFlow(t)
			base := Analyze(fl, DefaultConfig())
			want, err := MarshalAnalyses([]*FlowAnalysis{base})
			if err != nil {
				t.Fatal(err)
			}
			for _, shift := range []time.Duration{-3 * time.Millisecond, 10 * time.Second, 1000 * time.Hour} {
				a := Analyze(shiftTSClock(fl, func(ts sim.Time) sim.Time { return ts + sim.Time(shift) }), DefaultConfig())
				got, err := MarshalAnalyses([]*FlowAnalysis{a})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("timestamp clock shifted %v: analysis diverged\nwant:\n%s\ngot:\n%s", shift, want, got)
				}
			}

			var sent []sim.Time
			for _, r := range fl.Records {
				if r.Dir == trace.DirOut && r.Seg.TSVal != 0 {
					sent = append(sent, r.Seg.TSVal)
				}
			}
			at := sent[3]
			wrapped := shiftTSClock(fl, func(ts sim.Time) sim.Time {
				return (ts + tsWrap - at + sim.Time(500*time.Microsecond)) % tsWrap
			})
			before, after := 0, 0
			for _, r := range wrapped.Records {
				if r.Dir == trace.DirOut && r.Seg.TSVal != 0 {
					if r.Seg.TSVal > tsWrap/2 {
						before++
					} else {
						after++
					}
				}
			}
			if before == 0 || after == 0 {
				t.Fatalf("the shifted clock does not wrap within the flow: %d TSvals before the wrap, %d after", before, after)
			}
			if got, want := summarize(Analyze(wrapped, DefaultConfig())), summarize(base); got != want {
				t.Errorf("timestamp clock wrapped early in the flow: analysis diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// Once the server's timestamp clock wraps 2^32 ticks, every later echo
// maps to about 49 days and is discarded. The analyzer must then take
// the ack-edge sample, as on a flow without timestamps, or a long flow
// takes no RTT sample after the wrap and its SRTT and RTO freeze. A
// long transfer whose timestamp clock wraps early must analyse exactly
// like the same flow with every echo of a post-wrap TSval removed, and
// must keep taking RTT samples after the wrap.
func TestRTTSamplesContinueAfterTSWrap(t *testing.T) {
	fl := scenario{seed: 106, reqs: []tcpsim.Request{{Size: 2_000_000}}}.runFlow(t)
	var at sim.Time
	for i, n := 0, 0; i < len(fl.Records) && n < 4; i++ {
		if r := &fl.Records[i]; r.Dir == trace.DirOut && r.Seg.TSVal != 0 {
			at, n = r.Seg.TSVal, n+1
		}
	}
	wrapped := shiftTSClock(fl, func(ts sim.Time) sim.Time {
		return (ts + tsWrap - at + sim.Time(500*time.Microsecond)) % tsWrap
	})
	stripped := shiftTSClock(wrapped, func(ts sim.Time) sim.Time { return ts })
	firstEcho := -1
	for i := range stripped.Records {
		r := &stripped.Records[i]
		if r.Dir == trace.DirIn && r.Seg.TSEcr != 0 && r.Seg.TSEcr < tsWrap/2 {
			r.Seg.TSEcr = 0
			if firstEcho < 0 {
				firstEcho = i
			}
		}
	}
	if firstEcho < 0 || firstEcho > len(stripped.Records)/10 {
		t.Fatalf("first echo of a wrapped TSval at record %d of %d, want one early in the flow", firstEcho, len(stripped.Records))
	}

	got := Analyze(wrapped, seriesConfig())
	want := Analyze(stripped, DefaultConfig())
	gotJSON, err := MarshalAnalyses([]*FlowAnalysis{got})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := MarshalAnalyses([]*FlowAnalysis{want})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("wrapped timestamps analyse unlike the flow without the wrapped echoes\nwant:\n%s\ngot:\n%s", wantJSON, gotJSON)
	}

	prefix := *wrapped
	prefix.Records = wrapped.Records[:firstEcho]
	before := len(Analyze(&prefix, seriesConfig()).RTTSamplesMS)
	if after := len(got.RTTSamplesMS) - before; after < 100 {
		t.Errorf("%d RTT samples before the first wrapped echo, %d after; want samples to keep arriving", before, after)
	}
}
