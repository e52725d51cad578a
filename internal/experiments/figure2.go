package experiments

import (
	"fmt"
	"strings"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/netem"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// SeqPoint is one point of the Figure-2 sequence/time plot.
type SeqPoint struct {
	T time.Duration
	// Seq is the relative stream offset of an outgoing data segment,
	// unwrapped past 2^32 so a transfer crossing an ISN wrap still
	// plots monotonically.
	Seq uint64
	// Retrans marks retransmitted copies (plotted distinctly in the
	// paper's figure).
	Retrans bool
}

// Figure2Result is the illustrative single-flow stall timeline of
// Figure 2: a 400KB cloud-storage transfer stalled first by a zero
// receive window (~250ms), then by RTT variation (~300ms), then by
// timeout retransmissions exceeding a second, totalling >5s of stall
// across ~9s of transfer.
type Figure2Result struct {
	Analysis *core.FlowAnalysis
	Flow     *trace.Flow
	// Series is the sequence/time plot data (the figure's left
	// axis); RTTSamplesMS on the analysis carries the right axis.
	Series []SeqPoint
	// TotalTime and StalledTime summarize the run.
	TotalTime   time.Duration
	StalledTime time.Duration
}

// seqSeries extracts the outgoing-data sequence plot from a flow.
// Wire sequence numbers go through a seqspace.Unwrapper before any
// arithmetic: subtracting the base or keying the retransmission set on
// raw uint32 values would alias across a 2^32 wrap.
func seqSeries(fl *trace.Flow) []SeqPoint {
	var out []SeqPoint
	seen := map[uint64]bool{}
	var uw seqspace.Unwrapper
	var base uint64
	haveBase := false
	for i := range fl.Records {
		r := &fl.Records[i]
		if r.Dir != trace.DirOut || r.Seg.Len == 0 {
			continue
		}
		off := uw.Unwrap(r.Seg.Seq)
		if !haveBase {
			base = off
			haveBase = true
		}
		out = append(out, SeqPoint{
			T:       time.Duration(r.T),
			Seq:     off - base,
			Retrans: seen[off],
		})
		seen[off] = true
	}
	return out
}

// Figure2 runs the scripted scenario and renders the stall timeline.
func Figure2(seed int64) (*Figure2Result, string) {
	s := sim.New()
	rng := sim.NewRNG(seed)
	// A modest client behind a ~70ms, 300KB/s path.
	down := netem.New(s, rng, netem.Config{
		Delay: 35 * time.Millisecond, Jitter: 4 * time.Millisecond,
		Bandwidth: 300_000, QueueLimit: 12,
	})
	up := netem.New(s, rng, netem.Config{Delay: 35 * time.Millisecond, FIFOEnforce: true})
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: 400_000}},
	}
	cfg.Receiver.BufSize = 32 * 1024
	cfg.Receiver.ReadRate = 400_000
	col := trace.NewCollector("figure2", "cloud-storage")
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, col)
	conn.Start()

	// Scripted events, mirroring the narrative of Figure 2:
	// 1. the client app stops reading → zero receive window;
	s.Schedule(700*time.Millisecond, func() {
		conn.Receiver().PauseReading(1300 * time.Millisecond)
	})
	// 2. an RTT-variation episode delays the ACK stream;
	s.Schedule(2600*time.Millisecond, func() {
		up.SetDelay(265 * time.Millisecond)
		s.Schedule(100*time.Millisecond, func() { up.SetDelay(35 * time.Millisecond) })
	})
	// 3. loss bursts force timeout retransmissions, including a
	//    double retransmission with RTO backoff.
	blackout := func(at, dur time.Duration) {
		s.Schedule(at, func() {
			down.SetLoss(netem.Bernoulli{P: 1})
			s.Schedule(dur, func() { down.SetLoss(nil) })
		})
	}
	blackout(2900*time.Millisecond, 500*time.Millisecond)
	blackout(4100*time.Millisecond, 900*time.Millisecond)

	s.RunUntil(sim.Time(60 * time.Second))
	col.Flow.Done = conn.Metrics().Done
	acfg := core.DefaultConfig()
	acfg.PerACKSeries = true // the right axis
	a := core.Analyze(col.Flow, acfg)

	res := &Figure2Result{
		Analysis:    a,
		Flow:        col.Flow,
		Series:      seqSeries(col.Flow),
		TotalTime:   a.TransmissionTime,
		StalledTime: a.TotalStallTime,
	}

	var b strings.Builder
	b.WriteString("Figure 2: Illustrative example of TCP stalls within a flow (400KB transfer).\n")
	fmt.Fprintf(&b, "total transfer time %.1fs, stalled %.1fs (%.0f%%)\n",
		res.TotalTime.Seconds(), res.StalledTime.Seconds(), 100*a.StalledFraction())
	b.WriteString("start      end        dur      cause\n")
	b.WriteString("--------------------------------------------------\n")
	for _, st := range a.Stalls {
		cause := st.Cause.String()
		if st.Cause == core.CauseTimeoutRetrans {
			cause += "/" + st.RetransCause.String()
		}
		fmt.Fprintf(&b, "%8.2fs %8.2fs %7.0fms  %s\n",
			st.Start.Seconds(), st.End.Seconds(),
			float64(st.Duration)/float64(time.Millisecond), cause)
	}
	// The sequence/time plot, decimated to ~40 rows for the console.
	b.WriteString("sequence/time series (• = first transmission, R = retransmission):\n")
	step := len(res.Series)/40 + 1
	for i := 0; i < len(res.Series); i += step {
		p := res.Series[i]
		mark := "•"
		if p.Retrans {
			mark = "R"
		}
		fmt.Fprintf(&b, "%8.2fs %8.1fKB %s\n", p.T.Seconds(), float64(p.Seq)/1000, mark)
	}
	return res, b.String()
}
