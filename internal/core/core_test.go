package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// scenario builds a simulated connection, runs it, and returns TAPO's
// analysis of the server-side trace — the ground-truth loop the
// classifier tests ride on.
type scenario struct {
	seed     int64
	reqs     []tcpsim.Request
	mutate   func(*tcpsim.ConnConfig)
	downLoss netem.LossModel
	upLoss   netem.LossModel
	// dropPlan drops the first N copies of the ordinal-th distinct
	// data segment (by first transmission order).
	dropPlan map[int]int
	// script runs after Start with access to the sim and conn.
	script func(s *sim.Simulator, c *tcpsim.Conn)
	// rttMS is the one-way delay in ms (default 20).
	rttMS int
}

func (sc scenario) run(t *testing.T) *FlowAnalysis {
	t.Helper()
	return Analyze(sc.runFlow(t), DefaultConfig())
}

// runFlow runs the scenario and returns the raw server-side trace,
// for tests that want to drive the analyzer themselves.
func (sc scenario) runFlow(t *testing.T) *trace.Flow {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(sc.seed)
	delay := 20 * time.Millisecond
	if sc.rttMS > 0 {
		delay = time.Duration(sc.rttMS) * time.Millisecond / 2
	}
	down := netem.New(s, rng, netem.Config{Delay: delay, Loss: sc.downLoss})
	up := netem.New(s, rng, netem.Config{Delay: delay, Loss: sc.upLoss})
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: sc.reqs,
	}
	if sc.mutate != nil {
		sc.mutate(&cfg)
	}
	col := trace.NewCollector("scenario", "test")
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, col)
	if sc.dropPlan != nil {
		inner := conn.Sender().Output
		distinct := 0
		ordinalOf := map[uint32]int{}
		copies := map[uint32]int{}
		conn.Sender().Output = func(seg *trace.Segment) {
			if seg.Len > 0 {
				if _, ok := ordinalOf[seg.Seq]; !ok {
					distinct++
					ordinalOf[seg.Seq] = distinct
				}
				copies[seg.Seq]++
				if n, ok := sc.dropPlan[ordinalOf[seg.Seq]]; ok && copies[seg.Seq] <= n {
					// The server NIC saw it; the network ate it.
					col.Record(s.Now(), trace.DirOut, *seg)
					return
				}
			}
			inner(seg)
		}
	}
	conn.Start()
	if sc.script != nil {
		sc.script(s, conn)
	}
	s.Run()
	if !conn.Metrics().Done {
		t.Fatal("scenario did not complete")
	}
	col.Flow.Done = true
	return col.Flow
}

// stallsOf filters stalls by cause.
func stallsOf(a *FlowAnalysis, c Cause) []Stall {
	var out []Stall
	for _, st := range a.Stalls {
		if st.Cause == c {
			out = append(out, st)
		}
	}
	return out
}

func retransOf(a *FlowAnalysis, rc RetransCause) []Stall {
	var out []Stall
	for _, st := range a.Stalls {
		if st.Cause == CauseTimeoutRetrans && st.RetransCause == rc {
			out = append(out, st)
		}
	}
	return out
}

func TestCleanFlowNoStalls(t *testing.T) {
	a := scenario{seed: 1, reqs: []tcpsim.Request{{Size: 100_000}}}.run(t)
	if len(a.Stalls) != 0 {
		t.Errorf("clean flow produced %d stalls: %+v", len(a.Stalls), a.Stalls)
	}
	if a.DataBytes != 100_000 {
		t.Errorf("DataBytes = %d", a.DataBytes)
	}
	if want := (100_000 + 1459) / 1460; a.DataPackets != want {
		t.Errorf("DataPackets = %d want %d", a.DataPackets, want)
	}
	if a.RetransPackets != 0 {
		t.Errorf("RetransPackets = %d", a.RetransPackets)
	}
	if len(a.RTTSamplesMS) == 0 {
		t.Error("no RTT samples")
	}
	if a.AvgRTT() < 35 || a.AvgRTT() > 120 {
		t.Errorf("AvgRTT = %.1fms, expected ≈40-100ms", a.AvgRTT())
	}
}

func TestClientIdleStall(t *testing.T) {
	a := scenario{seed: 2, reqs: []tcpsim.Request{
		{Size: 20_000},
		{IdleBefore: 500 * time.Millisecond, Size: 20_000},
	}}.run(t)
	idles := stallsOf(a, CauseClientIdle)
	if len(idles) != 1 {
		t.Fatalf("client-idle stalls = %d, want 1 (all: %+v)", len(idles), a.Stalls)
	}
	if d := idles[0].Duration; d < 350*time.Millisecond || d > 600*time.Millisecond {
		t.Errorf("idle stall duration = %v", d)
	}
}

func TestDataUnavailableStall(t *testing.T) {
	a := scenario{seed: 3, reqs: []tcpsim.Request{
		{Size: 20_000, HeadDelay: 400 * time.Millisecond},
	}}.run(t)
	got := stallsOf(a, CauseDataUnavailable)
	if len(got) != 1 {
		t.Fatalf("data-unavailable stalls = %d (all: %+v)", len(got), a.Stalls)
	}
	if d := got[0].Duration; d < 300*time.Millisecond {
		t.Errorf("duration = %v, want ≈400ms", d)
	}
}

func TestDataUnavailableOnSecondResponse(t *testing.T) {
	a := scenario{seed: 4, reqs: []tcpsim.Request{
		{Size: 20_000},
		{Size: 20_000, HeadDelay: 400 * time.Millisecond},
	}}.run(t)
	got := stallsOf(a, CauseDataUnavailable)
	if len(got) != 1 {
		t.Fatalf("data-unavailable stalls = %d (all: %+v)", len(got), a.Stalls)
	}
}

func TestResourceConstraintStall(t *testing.T) {
	a := scenario{seed: 5, reqs: []tcpsim.Request{{
		Size:   40_000,
		Pauses: []tcpsim.AppPause{{AfterBytes: 14_600, Duration: 400 * time.Millisecond}},
	}}}.run(t)
	got := stallsOf(a, CauseResourceConstraint)
	if len(got) != 1 {
		t.Fatalf("resource-constraint stalls = %d (all: %+v)", len(got), a.Stalls)
	}
}

func TestZeroWindowStall(t *testing.T) {
	a := scenario{
		seed: 6,
		reqs: []tcpsim.Request{{Size: 200_000}},
		mutate: func(c *tcpsim.ConnConfig) {
			c.Receiver.InitRwnd = 8 * 1460
			c.Receiver.BufSize = 8 * 1460
		},
		script: func(s *sim.Simulator, c *tcpsim.Conn) {
			s.Schedule(150*time.Millisecond, func() {
				c.Receiver().PauseReading(800 * time.Millisecond)
			})
		},
	}.run(t)
	got := stallsOf(a, CauseZeroWindow)
	if len(got) == 0 {
		t.Fatalf("no zero-window stalls (all: %+v)", a.Stalls)
	}
	if !a.ZeroRwndSeen {
		t.Error("ZeroRwndSeen not set")
	}
}

func TestPacketDelayStall(t *testing.T) {
	// A one-off ~300ms jitter burst on the ACK path mid-flow: the
	// server goes silent past 2·SRTT but the late ACKs land before
	// the (raised) RTO — the stall ends with an incoming ACK and no
	// retransmission.
	s := sim.New()
	rng := sim.NewRNG(7)
	down := netem.New(s, rng, netem.Config{Delay: 50 * time.Millisecond})
	up := netem.New(s, rng, netem.Config{Delay: 50 * time.Millisecond})
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: 200_000}},
	}
	cfg.Sender.MinRTO = 500 * time.Millisecond
	col := trace.NewCollector("pd", "test")
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, col)
	conn.Start()
	s.Schedule(400*time.Millisecond, func() {
		up.SetDelay(350 * time.Millisecond)
		s.Schedule(50*time.Millisecond, func() { up.SetDelay(50 * time.Millisecond) })
	})
	s.Run()
	if !conn.Metrics().Done {
		t.Fatal("did not complete")
	}
	res := Analyze(col.Flow, DefaultConfig())
	if conn.Metrics().Sender.RTOFirings != 0 {
		t.Skip("delay bump triggered RTO; scenario not applicable")
	}
	got := stallsOf(res, CausePacketDelay)
	if len(got) == 0 {
		t.Fatalf("no packet-delay stalls (all: %+v)", res.Stalls)
	}
}

func TestTailRetransmissionStall(t *testing.T) {
	a := scenario{
		seed:     8,
		reqs:     []tcpsim.Request{{Size: 3 * 1460}},
		dropPlan: map[int]int{3: 1},
	}.run(t)
	got := retransOf(a, RetransTail)
	if len(got) != 1 {
		t.Fatalf("tail-retrans stalls = %d (all: %+v)", len(got), a.Stalls)
	}
	if got[0].TailState != trace.StateOpen {
		t.Errorf("tail state = %v, want Open", got[0].TailState)
	}
	if got[0].Position < 0 {
		t.Error("position unset")
	}
}

func TestFDoubleRetransmissionStall(t *testing.T) {
	// Drop a mid-flow segment and its fast retransmission.
	a := scenario{
		seed:     9,
		reqs:     []tcpsim.Request{{Size: 40_000}},
		dropPlan: map[int]int{10: 2},
	}.run(t)
	got := retransOf(a, RetransDouble)
	if len(got) != 1 {
		t.Fatalf("double-retrans stalls = %d (all: %+v)", len(got), a.Stalls)
	}
	if got[0].DoubleKind != DoubleFast {
		t.Errorf("kind = %v, want f-double", got[0].DoubleKind)
	}
}

func TestTDoubleRetransmissionStall(t *testing.T) {
	// Drop the tail segment twice: both recoveries are timeouts, so
	// the second stall is a t-double.
	a := scenario{
		seed:     10,
		reqs:     []tcpsim.Request{{Size: 3 * 1460}},
		dropPlan: map[int]int{3: 2},
	}.run(t)
	got := retransOf(a, RetransDouble)
	if len(got) != 1 {
		t.Fatalf("double-retrans stalls = %d (all: %+v)", len(got), a.Stalls)
	}
	if got[0].DoubleKind != DoubleTimeout {
		t.Errorf("kind = %v, want t-double", got[0].DoubleKind)
	}
	// The first timeout shows up as a tail stall.
	if tails := retransOf(a, RetransTail); len(tails) != 1 {
		t.Errorf("tail stalls = %d, want 1 (the first timeout)", len(tails))
	}
}

func TestSmallCwndRetransmissionStall(t *testing.T) {
	// IW=1 and the very first segment dropped: 1 packet in flight,
	// plenty of data left (not a tail), huge rwnd (not rwnd-limited).
	a := scenario{
		seed: 11,
		reqs: []tcpsim.Request{{Size: 30_000}},
		mutate: func(c *tcpsim.ConnConfig) {
			c.Sender.InitCwnd = 1
		},
		dropPlan: map[int]int{1: 1},
	}.run(t)
	got := retransOf(a, RetransSmallCwnd)
	if len(got) != 1 {
		t.Fatalf("small-cwnd stalls = %d (all: %+v)", len(got), a.Stalls)
	}
	if got[0].InFlight >= 4 {
		t.Errorf("in-flight = %d, want < 4", got[0].InFlight)
	}
}

func TestSmallRwndRetransmissionStall(t *testing.T) {
	// rwnd of 2 MSS caps in-flight at 2; a drop mid-flow cannot be
	// fast-retransmitted.
	a := scenario{
		seed: 12,
		reqs: []tcpsim.Request{{Size: 30_000}},
		mutate: func(c *tcpsim.ConnConfig) {
			c.Receiver.InitRwnd = 2 * 1460
			c.Receiver.BufSize = 2 * 1460
		},
		dropPlan: map[int]int{6: 1},
	}.run(t)
	got := retransOf(a, RetransSmallRwnd)
	if len(got) == 0 {
		t.Fatalf("no small-rwnd stalls (all: %+v)", a.Stalls)
	}
}

func TestContinuousLossStall(t *testing.T) {
	// Mid-flow, black-hole the downlink briefly so an entire window
	// (> 4 segments) vanishes with zero dupack feedback.
	s := sim.New()
	rng := sim.NewRNG(13)
	down := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	cfg := tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: 400_000}},
	}
	col := trace.NewCollector("cl", "test")
	conn := tcpsim.NewLinkedConn(s, cfg, down, up, col)
	conn.Start()
	s.Schedule(250*time.Millisecond, func() {
		down.SetLoss(netem.Bernoulli{P: 1})
		s.Schedule(60*time.Millisecond, func() { down.SetLoss(nil) })
	})
	s.Run()
	if !conn.Metrics().Done {
		t.Fatal("did not complete")
	}
	a := Analyze(col.Flow, DefaultConfig())
	got := retransOf(a, RetransContinuousLoss)
	if len(got) == 0 {
		t.Fatalf("no continuous-loss stalls (all: %+v)", a.Stalls)
	}
	if got[0].PacketsOut < 4 {
		t.Errorf("outstanding = %d, want ≥ 4", got[0].PacketsOut)
	}
}

func TestAckDelayLossStall(t *testing.T) {
	// 500ms delayed ACK beats the RTO mid-flow: the retransmission is
	// spurious and DSACKed — ACK delay/loss. ACK loss on the uplink
	// creates the mid-flow lone-segment situations where the delack
	// holds the only pending acknowledgment (the paper's
	// software-download pathology).
	a := scenario{
		seed:   14,
		reqs:   []tcpsim.Request{{Size: 60 * 1460}},
		upLoss: netem.Bernoulli{P: 0.15},
		mutate: func(c *tcpsim.ConnConfig) {
			c.Receiver.DelAckDelay = 500 * time.Millisecond
			// 2-MSS window makes odd in-flight counts (and thus held
			// ACKs) frequent, as with the paper's software-download
			// clients.
			c.Receiver.InitRwnd = 2 * 1460
			c.Receiver.BufSize = 2 * 1460
		},
	}.run(t)
	got := retransOf(a, RetransAckDelayLoss)
	if len(got) == 0 {
		t.Fatalf("no ack-delay-loss stalls (all: %+v)", a.Stalls)
	}
}

func TestStalledFractionAndTotals(t *testing.T) {
	a := scenario{seed: 15, reqs: []tcpsim.Request{
		{Size: 10_000, HeadDelay: time.Second},
	}}.run(t)
	if a.TotalStallTime < 800*time.Millisecond {
		t.Errorf("TotalStallTime = %v", a.TotalStallTime)
	}
	f := a.StalledFraction()
	if f <= 0.3 || f > 1 {
		t.Errorf("StalledFraction = %v", f)
	}
}

func TestRTOSamplesRecorded(t *testing.T) {
	a := scenario{
		seed:     16,
		reqs:     []tcpsim.Request{{Size: 3 * 1460}},
		dropPlan: map[int]int{3: 1},
	}.run(t)
	if len(a.RTOSamplesMS) != 1 {
		t.Fatalf("RTO samples = %d, want 1", len(a.RTOSamplesMS))
	}
	if a.RTOSamplesMS[0] < 150 {
		t.Errorf("RTO sample = %.0fms", a.RTOSamplesMS[0])
	}
}

func TestInFlightOnAckSamples(t *testing.T) {
	a := scenario{seed: 17, reqs: []tcpsim.Request{{Size: 100_000}}}.run(t)
	if len(a.InFlightOnAck) == 0 {
		t.Fatal("no in-flight samples")
	}
	maxSeen := 0
	for _, v := range a.InFlightOnAck {
		if v < 0 {
			t.Fatal("negative in-flight")
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	if maxSeen < 3 {
		t.Errorf("max in-flight on ack = %d, expected growth beyond IW", maxSeen)
	}
}

func TestClassificationDeterminism(t *testing.T) {
	run := func() []Stall {
		return scenario{
			seed:     18,
			reqs:     []tcpsim.Request{{Size: 60_000}},
			downLoss: netem.Bernoulli{P: 0.05},
		}.run(t).Stalls
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stall counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cause != b[i].Cause || a[i].RetransCause != b[i].RetransCause {
			t.Errorf("stall %d classification differs", i)
		}
	}
}

func TestEveryStallHasExactlyOneCause(t *testing.T) {
	a := scenario{
		seed:     19,
		reqs:     []tcpsim.Request{{Size: 300_000}},
		downLoss: netem.Bernoulli{P: 0.08},
		upLoss:   netem.Bernoulli{P: 0.03},
	}.run(t)
	for i, st := range a.Stalls {
		if st.Cause == CauseTimeoutRetrans && st.RetransCause == RetransNone {
			t.Errorf("stall %d: retrans cause missing", i)
		}
		if st.Cause != CauseTimeoutRetrans && st.RetransCause != RetransNone {
			t.Errorf("stall %d: retrans cause %v on non-retrans stall", i, st.RetransCause)
		}
		if st.Duration <= 0 {
			t.Errorf("stall %d: non-positive duration", i)
		}
	}
}

func TestReportAggregation(t *testing.T) {
	var analyses []*FlowAnalysis
	for seed := int64(30); seed < 40; seed++ {
		analyses = append(analyses, scenario{
			seed:     seed,
			reqs:     []tcpsim.Request{{Size: 80_000}},
			downLoss: netem.Bernoulli{P: 0.06},
		}.run(t))
	}
	r := NewReport(analyses)
	if r.Flows != 10 {
		t.Errorf("Flows = %d", r.Flows)
	}
	if r.TotalStalls == 0 {
		t.Fatal("no stalls across 10 lossy flows")
	}
	sumCount := 0.0
	for c := range r.CountByCause {
		sumCount += r.CausePctCount(c)
	}
	if sumCount < 0.999 || sumCount > 1.001 {
		t.Errorf("cause count shares sum to %v", sumCount)
	}
	sumTime := 0.0
	for c := range r.TimeByCause {
		sumTime += r.CausePctTime(c)
	}
	if sumTime < 0.999 || sumTime > 1.001 {
		t.Errorf("cause time shares sum to %v", sumTime)
	}
	if n := r.RetransCountByCause; len(n) > 0 {
		sum := 0.0
		for c := range n {
			sum += r.RetransPctCount(c)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("retrans shares sum to %v", sum)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	if CauseTimeoutRetrans.String() != "retransmission" {
		t.Error("cause string")
	}
	if RetransDouble.String() != "double-retrans" {
		t.Error("retrans string")
	}
	if DoubleFast.String() != "f-double" || DoubleTimeout.String() != "t-double" || DoubleNone.String() != "none" {
		t.Error("double kind strings")
	}
	if CategoryOf(CauseZeroWindow) != CategoryClient ||
		CategoryOf(CauseTimeoutRetrans) != CategoryNetwork ||
		CategoryOf(CauseDataUnavailable) != CategoryServer ||
		CategoryOf(CauseUndetermined) != CategoryUnknown {
		t.Error("categories")
	}
	if CategoryServer.String() != "server" || CategoryUnknown.String() != "unknown" {
		t.Error("category strings")
	}
}

func TestAnalyzeEmptyFlow(t *testing.T) {
	a := Analyze(&trace.Flow{ID: "empty"}, DefaultConfig())
	if len(a.Stalls) != 0 || a.DataBytes != 0 {
		t.Error("empty flow analysis not empty")
	}
	if a.StalledFraction() != 0 {
		t.Error("stalled fraction of empty flow")
	}
}

func TestAnalyzeMidCaptureFlow(t *testing.T) {
	// A capture that starts mid-connection (no SYN, no handshake):
	// TAPO must still detect and classify the retransmission stall.
	full := scenario{
		seed:     40,
		reqs:     []tcpsim.Request{{Size: 30_000}},
		dropPlan: map[int]int{21: 1}, // tail segment: forces an RTO
	}
	s := sim.New()
	rng := sim.NewRNG(full.seed)
	down := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	up := netem.New(s, rng, netem.Config{Delay: 20 * time.Millisecond})
	col := trace.NewCollector("mid", "test")
	conn := tcpsim.NewLinkedConn(s, tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: full.reqs,
	}, down, up, col)
	inner := conn.Sender().Output
	n := 0
	conn.Sender().Output = func(seg *trace.Segment) {
		if seg.Len > 0 {
			n++
			if n == 21 {
				col.Record(s.Now(), trace.DirOut, *seg)
				return
			}
		}
		inner(seg)
	}
	conn.Start()
	s.Run()
	if !conn.Metrics().Done {
		t.Fatal("did not complete")
	}
	// Chop the first 8 records (handshake + early data) off the
	// trace, as a capture started mid-flow would.
	fl := col.Flow
	fl.Records = fl.Records[8:]
	fl.InitRwnd = 0
	a := Analyze(fl, DefaultConfig())
	if a.DataBytes == 0 || a.DataPackets == 0 {
		t.Fatal("mid-capture flow not parsed")
	}
	found := false
	for _, st := range a.Stalls {
		if st.Cause == CauseTimeoutRetrans {
			found = true
		}
	}
	if !found {
		t.Errorf("retransmission stall lost in mid-capture analysis: %+v", a.Stalls)
	}
}

func TestTailRetransInRecoveryState(t *testing.T) {
	// A mid-window hole (fast-retransmitted) plus a tail loss in the
	// same window: the SACK-scoreboard sender leaves the tail to the
	// RTO while still in Recovery — the paper's Table-7
	// "tail retransmission in Recovery state".
	a := scenario{
		seed:     77,
		reqs:     []tcpsim.Request{{Size: 15 * 1460}},
		dropPlan: map[int]int{9: 1, 15: 1},
	}.run(t)
	tails := retransOf(a, RetransTail)
	if len(tails) == 0 {
		t.Fatalf("no tail stall (all: %+v)", a.Stalls)
	}
	if tails[0].TailState != trace.StateRecovery {
		t.Errorf("tail state = %v, want Recovery", tails[0].TailState)
	}
	if tails[0].CaState != trace.StateRecovery {
		t.Errorf("ca state at stall = %v, want Recovery", tails[0].CaState)
	}
}

// ---------------------------------------------------------------------------
// Golden traces: three committed pcaps, one per Figure-5 stall family,
// whose full JSON analyses are pinned under testdata/. Regenerate with
//
//	go run internal/core/testdata/gen_golden.go
//
// and refresh only the JSON (after an intentional classifier change)
// with
//
//	go test ./internal/core -run TestGoldenTraces -update
// ---------------------------------------------------------------------------

var updateGolden = flag.Bool("update", false, "rewrite golden JSON from the committed pcaps")

func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		name string
		want Cause
	}{
		{"golden_server", CauseDataUnavailable},
		{"golden_client", CauseZeroWindow},
		{"golden_network", CauseTimeoutRetrans},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", tc.name+".pcap"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			flows, err := trace.ImportPcap(f, trace.ImportConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if len(flows) == 0 {
				t.Fatal("golden pcap contains no flows")
			}
			var analyses []*FlowAnalysis
			hits := 0
			for _, fl := range flows {
				a := Analyze(fl, DefaultConfig())
				for _, s := range a.Stalls {
					if s.Cause == tc.want {
						hits++
					}
				}
				analyses = append(analyses, a)
			}
			if hits == 0 {
				t.Errorf("no %v stall in %s — fixture no longer covers its family", tc.want, tc.name)
			}
			got, err := MarshalAnalyses(analyses)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("analysis of %s.pcap diverges from %s (got %d bytes, want %d); run with -update after intentional classifier changes",
					tc.name, goldenPath, len(got), len(want))
			}
		})
	}
}
