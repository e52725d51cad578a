// Package explain renders flight-recorder evidence into the
// human-readable stall narratives behind `tapo explain`: for every
// stall, the classification verdict, the Figure-5/Table-5 decision
// path with the concrete variable values that chose each branch, the
// ±K packet window around the silent gap, and the analyzer events
// recorded near it.
package explain

import (
	"fmt"
	"io"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
)

// Flow renders the narrative for every stall of one analyzed flow.
// Output is deterministic: the golden-explain CI gate pins it per
// Figure-5 family.
func Flow(w io.Writer, a *core.FlowAnalysis, rec *flight.Recorder) {
	fmt.Fprintf(w, "flow %s", a.FlowID)
	if a.Service != "" {
		fmt.Fprintf(w, " (%s)", a.Service)
	}
	fmt.Fprintf(w, ": %d records-worth of data in %.3fs, %d stalls, %.1f%% of lifetime stalled\n",
		a.DataPackets, a.TransmissionTime.Seconds(), len(a.Stalls), 100*a.StalledFraction())
	if len(a.Stalls) == 0 {
		return
	}
	for i := range a.Stalls {
		st := &a.Stalls[i]
		var ev *flight.Evidence
		if st.Evidence != nil {
			ev = rec.Evidence(st.Evidence.Stall)
		}
		fmt.Fprintln(w)
		Stall(w, st, ev)
	}
	if rec != nil && rec.EvidenceDrops() > 0 {
		fmt.Fprintf(w, "\n(evidence for %d earlier stalls evicted by the per-flow cap)\n",
			rec.EvidenceDrops())
	}
}

// Stall renders one stall's narrative. A nil evidence falls back to
// the verdict-only summary (recorder disabled or evidence evicted).
func Stall(w io.Writer, st *core.Stall, ev *flight.Evidence) {
	label := causeLabel(st)
	fmt.Fprintf(w, "stall #%d: %s\n", st.ID, label)
	fmt.Fprintf(w, "  when:  %.6fs -> %.6fs  (%s of silence)\n",
		st.Start.Seconds(), st.End.Seconds(), fmtDur(st.Duration))
	fmt.Fprintf(w, "  state: ca=%v in_flight=%d pkts_out=%d rwnd=%d cwnd~%d\n",
		st.CaState, st.InFlight, st.PacketsOut, st.Rwnd, st.CwndEst)
	if st.Cause == core.CauseTimeoutRetrans && st.Position >= 0 {
		fmt.Fprintf(w, "  lost segment position: %.2f of the flow's data packets\n", st.Position)
	}
	if ev == nil {
		fmt.Fprintf(w, "  (no evidence captured — recorder disabled or entry evicted)\n")
		return
	}

	fmt.Fprintf(w, "  decision path (Figure 5 / Table 5):\n")
	for i, step := range ev.Decision {
		fmt.Fprintf(w, "    %2d. %s\n", i+1, step.String())
	}

	fmt.Fprintf(w, "  packet window (records %d..%d around the gap):\n",
		ev.Window[0].Idx, ev.Window[len(ev.Window)-1].Idx)
	fmt.Fprintf(w, "    %5s %12s %-3s %6s %11s %11s %7s %s\n",
		"rec", "t(s)", "dir", "len", "seq", "ack", "rwnd", "flags")
	for _, s := range ev.Window {
		if s.Idx == ev.EndIdx {
			fmt.Fprintf(w, "    %s %s silence %s\n", "-----", fmtDur(ev.Duration()), "-----")
		}
		mark := ""
		if s.Idx == ev.EndIdx {
			mark = "  <- cur_pkt"
		}
		fmt.Fprintf(w, "    %5d %12.6f %-3s %6d %11d %11d %7d %s%s\n",
			s.Idx, s.T.Seconds(), s.Dir(), s.Len, s.Seq, s.Ack, s.Wnd, s.Flags, mark)
	}

	if len(ev.Events) > 0 {
		fmt.Fprintf(w, "  analyzer events near the stall:\n")
		for _, e := range ev.Events {
			fmt.Fprintf(w, "    %5d %12.6f %-6s %-20s %d %d %d\n",
				e.Idx, e.T.Seconds(), e.Kind, e.Name, e.A, e.B, e.C)
		}
	}
	if ev.EventDrops > 0 {
		fmt.Fprintf(w, "  (event ring overwrote %d earlier events of this flow)\n", ev.EventDrops)
	}
	if ev.Provisional {
		fmt.Fprintf(w, "  (provisional: classification not yet settled by flow end)\n")
	}
}

func causeLabel(st *core.Stall) string {
	s := st.Cause.String()
	if st.Cause == core.CauseTimeoutRetrans {
		s += "/" + st.RetransCause.String()
		if st.RetransCause == core.RetransDouble {
			s += "(" + st.DoubleKind.String() + ")"
		}
		if st.RetransCause == core.RetransTail {
			s += "(in " + st.TailState.String() + ")"
		}
	}
	return s
}

// fmtDur renders durations at millisecond resolution so narratives
// stay stable across nanosecond-level jitter in regenerated fixtures.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}
