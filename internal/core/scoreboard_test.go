package core

import (
	"fmt"
	"testing"

	"tcpstall/internal/trace"
)

// checkScoreboard recomputes by full scan what the analyzer keeps
// incrementally — packets_out, sacked_out and the acked-prefix cursor —
// and reports the first disagreement.
func (a *analyzer) checkScoreboard() error {
	out, sacked := 0, 0
	for i := range a.segs {
		g := &a.segs[i]
		if !g.acked && g.sent > 0 {
			out++
		}
		if g.sacked && !g.acked {
			sacked++
		}
	}
	if out != a.packetsOut() {
		return fmt.Errorf("packetsOut() = %d, full scan %d", a.packetsOut(), out)
	}
	if sacked != a.sackedOut() {
		return fmt.Errorf("sackedOut() = %d, full scan %d", a.sackedOut(), sacked)
	}
	if a.lo < 0 || a.lo > len(a.segs) {
		return fmt.Errorf("cursor lo = %d outside [0, %d]", a.lo, len(a.segs))
	}
	for i := 0; i < a.lo; i++ {
		if !a.segs[i].acked {
			return fmt.Errorf("segs[%d] below cursor lo = %d is not acked", i, a.lo)
		}
	}
	if a.lo < len(a.segs) && a.segs[a.lo].acked {
		return fmt.Errorf("cursor lo = %d stops at an acked segment", a.lo)
	}
	return nil
}

// FeedChecked feeds recs one record at a time and checks the
// scoreboard after each. It is exported for the external test
// package, which drives the workload generator (workload imports
// core).
func FeedChecked(tb testing.TB, inc *Incremental, recs []trace.Record) {
	tb.Helper()
	for i := range recs {
		inc.Feed(&recs[i])
		if err := inc.a.checkScoreboard(); err != nil {
			tb.Fatalf("after record %d of %d: %v", i, len(recs), err)
		}
	}
}

// TestScoreboardLongFlow runs the benchmark's periodic-SACKed-loss
// flow: one hole per 64 segments, each fast-retransmitted.
func TestScoreboardLongFlow(t *testing.T) {
	inc := NewIncremental(DefaultConfig())
	FeedChecked(t, inc, longFlow(1024))
	if a := inc.Flush(); a.DataPackets != 1024 || a.RetransPackets != 16 || len(a.Stalls) != 0 {
		t.Fatalf("data=%d retrans=%d stalls=%d, want 1024/16/0", a.DataPackets, a.RetransPackets, len(a.Stalls))
	}
}

// TestScoreboardWrappedISN runs the wrapped-ISN regression flows,
// whose losses, SACK blocks and retransmissions straddle 2^32.
func TestScoreboardWrappedISN(t *testing.T) {
	retrans := 0
	for _, tc := range wrapCases {
		sc := tc.sc
		sc.mutate = wrapISNs
		inc := NewIncremental(DefaultConfig())
		FeedChecked(t, inc, sc.runFlow(t).Records)
		retrans += inc.Flush().RetransPackets
	}
	if retrans == 0 {
		t.Fatal("no retransmission across the wrap; the check is vacuous")
	}
}
