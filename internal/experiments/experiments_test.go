package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/mitigation"
	"tcpstall/internal/trace"
)

// The dataset is expensive; build it once for all tests.
var (
	dsOnce sync.Once
	dsAll  []*Dataset
)

func testDatasets(t *testing.T) []*Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsAll = BuildAll(Options{Seed: 20141222, FlowsOverride: 160})
	})
	return dsAll
}

func byName(ds []*Dataset, name string) *Dataset {
	for _, d := range ds {
		if d.Service.Name == name {
			return d
		}
	}
	return nil
}

func TestBuildAllThreeServices(t *testing.T) {
	ds := testDatasets(t)
	if len(ds) != 3 {
		t.Fatalf("datasets = %d", len(ds))
	}
	for _, d := range ds {
		if len(d.Analyses) < 140 {
			t.Errorf("%s: only %d analyses", d.Service.Name, len(d.Analyses))
		}
		if d.Report.TotalStalls == 0 {
			t.Errorf("%s: no stalls at all", d.Service.Name)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, rendered := Table1(testDatasets(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(name string) Table1Row {
		for _, r := range rows {
			if r.Service == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return Table1Row{}
	}
	cs, sd, ws := get("cloud-storage"), get("software-download"), get("web-search")
	// Size ordering: cloud storage ≫ software download ≫ web search
	// (one and two orders of magnitude, per the paper).
	if cs.AvgSize < 8*sd.AvgSize {
		t.Errorf("cloud size %.0f not ≫ download size %.0f", cs.AvgSize, sd.AvgSize)
	}
	if sd.AvgSize < 4*ws.AvgSize {
		t.Errorf("download size %.0f not ≫ search size %.0f", sd.AvgSize, ws.AvgSize)
	}
	// Loss: ~2% web search, ~4% the other two.
	if ws.LossPct >= cs.LossPct || ws.LossPct >= sd.LossPct {
		t.Errorf("web search loss %.1f should be lowest (cs %.1f, sd %.1f)",
			ws.LossPct, cs.LossPct, sd.LossPct)
	}
	for _, r := range rows {
		if r.LossPct < 0.5 || r.LossPct > 12 {
			t.Errorf("%s loss %.1f%% outside sane band", r.Service, r.LossPct)
		}
		if r.AvgRTTms < 50 || r.AvgRTTms > 300 {
			t.Errorf("%s RTT %.0fms outside band", r.Service, r.AvgRTTms)
		}
		// RTO an order of magnitude above RTT (Figure 1b).
		if r.AvgRTOms < 1.5*r.AvgRTTms {
			t.Errorf("%s RTO %.0fms not ≫ RTT %.0fms", r.Service, r.AvgRTOms, r.AvgRTTms)
		}
	}
	// Web search RTT lowest.
	if ws.AvgRTTms >= cs.AvgRTTms || ws.AvgRTTms >= sd.AvgRTTms {
		t.Errorf("web search RTT %.0f should be lowest", ws.AvgRTTms)
	}
	if !strings.Contains(rendered, "Table 1") {
		t.Error("render missing title")
	}
}

func TestFigure1RTOAboveRTT(t *testing.T) {
	rtt, rto, ratio, rendered := Figure1(testDatasets(t))
	if len(rtt.Series) != 3 || len(rto.Series) != 3 || len(ratio.Series) != 3 {
		t.Fatal("series counts")
	}
	for i := range ratio.Series {
		med := ratio.Series[i].Median()
		if med < 1.5 {
			t.Errorf("%s: median RTO/RTT = %.1f, want well above 1", ratio.Names[i], med)
		}
	}
	if !strings.Contains(rendered, "Figure 1a") || !strings.Contains(rendered, "Figure 1b") {
		t.Error("render labels")
	}
}

func TestFigure2Narrative(t *testing.T) {
	res, rendered := Figure2(99)
	if res.TotalTime < 4*time.Second {
		t.Errorf("transfer time %.1fs, want several seconds", res.TotalTime.Seconds())
	}
	if res.Analysis.StalledFraction() < 0.35 {
		t.Errorf("stalled fraction %.2f, want the majority of lifetime impaired",
			res.Analysis.StalledFraction())
	}
	// The three narrative stall classes must all appear.
	seen := map[core.Cause]bool{}
	var retransSeen bool
	for _, st := range res.Analysis.Stalls {
		seen[st.Cause] = true
		if st.Cause == core.CauseTimeoutRetrans && st.Duration > 500*time.Millisecond {
			retransSeen = true
		}
	}
	if !seen[core.CauseZeroWindow] {
		t.Error("no zero-window stall in the Figure 2 scenario")
	}
	if !seen[core.CausePacketDelay] {
		t.Error("no packet-delay stall in the Figure 2 scenario")
	}
	if !retransSeen {
		t.Error("no long timeout-retransmission stall in the Figure 2 scenario")
	}
	if !strings.Contains(rendered, "Figure 2") {
		t.Error("render title")
	}
}

func TestFigure3HeavyStalling(t *testing.T) {
	fs, rendered := Figure3(testDatasets(t))
	if len(fs.Series) != 3 {
		t.Fatal("series")
	}
	// Per the paper, a sizable share of flows stall; a subset spends
	// more than half its lifetime stalled.
	for i, s := range fs.Series {
		stalledAtAll := 1 - s.CDF(0.0001)
		if fs.Names[i] != "web search" && stalledAtAll < 0.15 {
			t.Errorf("%s: only %.0f%% of flows stall", fs.Names[i], 100*stalledAtAll)
		}
	}
	if !strings.Contains(rendered, "Figure 3") {
		t.Error("render")
	}
}

func TestTable3Shapes(t *testing.T) {
	res, rendered := Table3(testDatasets(t))
	// Retransmission stalls are the most significant stall-time
	// contributor for every service (30–60% band in the paper).
	for svc, m := range res {
		rt := m[core.CauseTimeoutRetrans].TimePct
		if rt < 15 {
			t.Errorf("%s: retrans stall time %.1f%%, want dominant contribution", svc, rt)
		}
		for c, cell := range m {
			if cell.TimePct < 0 || cell.TimePct > 100 {
				t.Errorf("%s/%v: time pct %.1f", svc, c, cell.TimePct)
			}
		}
	}
	// Zero-window stalls concentrate in software download.
	sd := res["software-download"][core.CauseZeroWindow].TimePct
	cs := res["cloud-storage"][core.CauseZeroWindow].TimePct
	ws := res["web-search"][core.CauseZeroWindow].TimePct
	if sd <= cs || sd <= ws {
		t.Errorf("zero-window time: sd %.1f should exceed cs %.1f and ws %.1f", sd, cs, ws)
	}
	// Client idle matters most for cloud storage (shared
	// connections).
	if res["cloud-storage"][core.CauseClientIdle].TimePct <=
		res["software-download"][core.CauseClientIdle].TimePct {
		t.Error("client-idle should weigh more in cloud storage")
	}
	// Data-unavailable volume is highest for web search (dynamic
	// content).
	if res["web-search"][core.CauseDataUnavailable].CountPct <=
		res["software-download"][core.CauseDataUnavailable].CountPct {
		t.Error("data-unavailable volume should be highest for web search")
	}
	if !strings.Contains(rendered, "Table 3") {
		t.Error("render")
	}
}

func TestTable4Monotone(t *testing.T) {
	rows, rendered := Table4(testDatasets(t))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Within software download, smaller init rwnd ⇒ higher
	// zero-window probability (allowing noise between adjacent
	// buckets, the ends must order correctly).
	var sdRows []Table4Row
	for _, r := range rows {
		if r.Service == "software-download" {
			sdRows = append(sdRows, r)
		}
	}
	if len(sdRows) < 3 {
		t.Fatalf("software-download buckets = %d", len(sdRows))
	}
	first, last := sdRows[0], sdRows[len(sdRows)-1]
	if first.InitMSS >= last.InitMSS {
		t.Fatalf("bucket ordering broken")
	}
	if first.ZeroPct <= last.ZeroPct {
		t.Errorf("zero-window pct should fall with init rwnd: %d MSS → %.1f%%, %d MSS → %.1f%%",
			first.InitMSS, first.ZeroPct, last.InitMSS, last.ZeroPct)
	}
	// Small windows suffer a lot (paper: >50% at ≤11 MSS).
	if first.ZeroPct < 25 {
		t.Errorf("smallest bucket zero-window pct = %.1f%%, want high", first.ZeroPct)
	}
	if !strings.Contains(rendered, "Table 4") {
		t.Error("render")
	}
}

func TestTable5Shapes(t *testing.T) {
	res, rendered := Table5(testDatasets(t))
	for svc, m := range res {
		double := m[core.RetransDouble].TimePct
		// Double retransmissions are the most expensive type for all
		// three services (with modest slack: the paper's web search
		// has tail at 36.0%% vs double at 41.9%%, a close race).
		for c, cell := range m {
			if c == core.RetransDouble {
				continue
			}
			if cell.TimePct > 1.2*double {
				t.Errorf("%s: %v time %.1f%% exceeds double-retrans %.1f%%",
					svc, c, cell.TimePct, double)
			}
		}
	}
	// Tail retransmission matters far more for web search.
	wsTail := res["web-search"][core.RetransTail].TimePct
	csTail := res["cloud-storage"][core.RetransTail].TimePct
	if wsTail <= csTail {
		t.Errorf("tail time: ws %.1f should exceed cs %.1f", wsTail, csTail)
	}
	if wsTail < 10 {
		t.Errorf("web-search tail share %.1f%%, want substantial", wsTail)
	}
	if !strings.Contains(rendered, "Table 5") {
		t.Error("render")
	}
}

func TestTable6FDoubleDominates(t *testing.T) {
	res, rendered := Table6(testDatasets(t))
	for svc, m := range res {
		f, tt := m[core.DoubleFast], m[core.DoubleTimeout]
		if f+tt < 99 || f+tt > 101 {
			t.Errorf("%s: kinds sum to %.1f", svc, f+tt)
		}
		if f < 50 {
			t.Errorf("%s: f-double %.1f%%, paper finds >50%% in every service", svc, f)
		}
	}
	if !strings.Contains(rendered, "Table 6") {
		t.Error("render")
	}
}

func TestTable7TailStates(t *testing.T) {
	res, rendered := Table7(testDatasets(t))
	for svc, m := range res {
		sum := m[trace.StateOpen] + m[trace.StateRecovery]
		if sum > 0 && (sum < 99 || sum > 101) {
			t.Errorf("%s: states sum to %.1f", svc, sum)
		}
	}
	if !strings.Contains(rendered, "Table 7") {
		t.Error("render")
	}
}

func TestFigure7DoubleContext(t *testing.T) {
	pos, inflight, rendered := Figure7(testDatasets(t))
	// Positions spread across the flow (roughly uniform, per 7a).
	// Web search is exempt: its flows are so short that positions
	// quantize to the head (the paper notes ~10%% of its stalls hit
	// the very first packet).
	for i, s := range pos.Series {
		if s.Len() < 5 || pos.Names[i] == "web search" {
			continue
		}
		med := s.Median()
		if med < 0.1 || med > 0.9 {
			t.Errorf("%s: median double position %.2f, want mid-flow spread", pos.Names[i], med)
		}
	}
	// Web search in-flight at double stalls is smaller than cloud
	// storage's (7b).
	var wsIF, csIF float64
	for i, s := range inflight.Series {
		if s.Len() == 0 {
			continue
		}
		switch inflight.Names[i] {
		case "web search":
			wsIF = s.Median()
		case "cloud stor.":
			csIF = s.Median()
		}
	}
	if wsIF > 0 && csIF > 0 && wsIF > csIF {
		t.Errorf("double in-flight: ws median %.1f should be ≤ cs %.1f", wsIF, csIF)
	}
	if !strings.Contains(rendered, "Figure 7a") {
		t.Error("render")
	}
}

func TestFigure10TailContext(t *testing.T) {
	_, inflight, rendered := Figure10(testDatasets(t))
	// Tail stalls happen at tiny in-flight sizes (most ≤ 3).
	for i, s := range inflight.Series {
		if s.Len() < 3 {
			continue
		}
		if med := s.Median(); med > 4 {
			t.Errorf("%s: median tail in-flight %.1f, want small", inflight.Names[i], med)
		}
	}
	if !strings.Contains(rendered, "Figure 10a") {
		t.Error("render")
	}
}

func TestFigure11SmallWindows(t *testing.T) {
	fs, rendered := Figure11(testDatasets(t))
	for i, s := range fs.Series {
		if s.Len() == 0 {
			t.Fatalf("%s: no samples", fs.Names[i])
		}
		below4 := s.CDF(3.999)
		if below4 < 0.05 {
			t.Errorf("%s: only %.1f%% of in-flight samples below 4", fs.Names[i], 100*below4)
		}
	}
	// Web search has the most tiny windows (short flows).
	var ws, cs float64
	for i, s := range fs.Series {
		switch fs.Names[i] {
		case "web search":
			ws = s.CDF(1.5)
		case "cloud stor.":
			cs = s.CDF(1.5)
		}
	}
	if ws <= cs {
		t.Errorf("P(in_flight ≤ 1): ws %.2f should exceed cs %.2f", ws, cs)
	}
	if !strings.Contains(rendered, "Figure 11") {
		t.Error("render")
	}
}

func TestFigure12ContinuousLoss(t *testing.T) {
	fs, rendered := Figure12(testDatasets(t))
	// Only the two download services are plotted.
	if len(fs.Series) != 2 {
		t.Fatalf("series = %d", len(fs.Series))
	}
	for i, s := range fs.Series {
		for _, v := range s.Values() {
			if v < core.SmallInFlight {
				t.Errorf("%s: continuous-loss in-flight %v below threshold", fs.Names[i], v)
			}
		}
	}
	if !strings.Contains(rendered, "Figure 12") {
		t.Error("render")
	}
}

func TestFigure6InitRwnd(t *testing.T) {
	fs, rendered := Figure6(testDatasets(t))
	var sd, cs *int
	for i, s := range fs.Series {
		frac := s.CDF(11)
		switch fs.Names[i] {
		case "soft. down.":
			v := int(100 * frac)
			sd = &v
		case "cloud stor.":
			v := int(100 * frac)
			cs = &v
		}
	}
	if sd == nil || cs == nil {
		t.Fatal("missing series")
	}
	if *sd < 8 || *sd > 30 {
		t.Errorf("software-download small-window fraction = %d%%, want ≈18%%", *sd)
	}
	if *cs != 0 {
		t.Errorf("cloud-storage small-window fraction = %d%%, want 0", *cs)
	}
	if !strings.Contains(rendered, "Figure 6") {
		t.Error("render")
	}
}

func TestTable8Shapes(t *testing.T) {
	rows, rendered := Table8(777, 400, 400)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		tlp := row.Reduction[string(mitigation.KindTLP)]
		srto := row.Reduction[string(mitigation.KindSRTO)]
		// Neither mechanism may do harm on average (small noise
		// slack), and both should help or break even.
		if srto["mean"] > 0.03 {
			t.Errorf("%s: S-RTO mean change %+.1f%%, want no harm", row.Workload, 100*srto["mean"])
		}
		if tlp["mean"] > 0.03 {
			t.Errorf("%s: TLP mean change %+.1f%%, want no harm", row.Workload, 100*tlp["mean"])
		}
		// The two probes should land within a few percent of each
		// other on this delay-heavy workload; EXPERIMENTS.md explains
		// why the paper's larger S-RTO margin needs the RTO ≫ RTT
		// regime (see TestFloorRegimeSRTOWins).
		if srto["mean"] > tlp["mean"]+0.04 {
			t.Errorf("%s: S-RTO mean %+.1f%% far behind TLP %+.1f%%",
				row.Workload, 100*srto["mean"], 100*tlp["mean"])
		}
	}
	if !strings.Contains(rendered, "Table 8") {
		t.Error("render")
	}
}

// TestFloorRegimeSRTOWins pins the paper's headline ordering in the
// regime its deployment sat in (stable paths, floor-dominated RTO ≈
// several RTTs, real loss): S-RTO's mean reduction clearly exceeds
// TLP's, as in Table 8.
func TestFloorRegimeSRTOWins(t *testing.T) {
	rows, rendered := FloorRegimeComparison(777, 500)
	srto := rows[0].Reduction[string(mitigation.KindSRTO)]
	tlp := rows[0].Reduction[string(mitigation.KindTLP)]
	if srto["mean"] >= -0.02 {
		t.Errorf("S-RTO mean change %+.1f%%, want a clear reduction", 100*srto["mean"])
	}
	if srto["mean"] > tlp["mean"] {
		t.Errorf("S-RTO mean %+.1f%% should beat TLP %+.1f%% in the floor regime",
			100*srto["mean"], 100*tlp["mean"])
	}
	if !strings.Contains(rendered, "Floor-regime") {
		t.Error("render")
	}
}

func TestTable9RetransRatioOrdering(t *testing.T) {
	rows, rendered := Table9(777, 220, 160)
	for _, row := range rows {
		linux := row.RatioPct[string(mitigation.KindNative)]
		tlp := row.RatioPct[string(mitigation.KindTLP)]
		srto := row.RatioPct[string(mitigation.KindSRTO)]
		if linux <= 0 {
			t.Errorf("%s: zero native retransmissions", row.Service)
		}
		// Probing adds a modest amount of retransmissions
		// (Linux ≤ TLP ≤ S-RTO shape, with slack for noise: TLP can
		// even save retransmissions by preventing RTO slow-start
		// retransmission trains).
		if tlp < linux*0.75 {
			t.Errorf("%s: TLP ratio %.2f below native %.2f", row.Service, tlp, linux)
		}
		if srto < linux*0.9 {
			t.Errorf("%s: S-RTO ratio %.2f below native %.2f", row.Service, srto, linux)
		}
		if srto > linux*3 {
			t.Errorf("%s: S-RTO ratio %.2f unreasonably above native %.2f", row.Service, srto, linux)
		}
	}
	if !strings.Contains(rendered, "Table 9") {
		t.Error("render")
	}
}

func TestLargeFlowThroughputUnchanged(t *testing.T) {
	chg, txt := LargeFlowThroughput(777, 120)
	for k, v := range chg {
		if v < -0.25 || v > 0.6 {
			t.Errorf("%s: large-flow throughput change %+.1f%%, want near zero", k, 100*v)
		}
	}
	if !strings.Contains(txt, "Large-flow") {
		t.Error("render")
	}
}

func TestFigure2SeriesShape(t *testing.T) {
	res, _ := Figure2(99)
	if len(res.Series) < 100 {
		t.Fatalf("series has %d points", len(res.Series))
	}
	// First-transmission sequence numbers are nondecreasing; at least
	// one retransmission appears (the scripted blackouts).
	var prev uint64
	retrans := 0
	for _, p := range res.Series {
		if p.Retrans {
			retrans++
			continue
		}
		if p.Seq < prev {
			t.Fatalf("first-transmission seq went backwards: %d < %d", p.Seq, prev)
		}
		prev = p.Seq
	}
	if retrans == 0 {
		t.Error("no retransmissions in the Figure 2 series")
	}
	// The plot covers the whole 400KB transfer.
	if prev < 390_000 {
		t.Errorf("series tops out at %d bytes", prev)
	}
}

// TestSRTOSweepShapes checks the ablation's layout, and that the
// deployed setting (T1 = 10, T2 = 5, 2·RTT), which all three sweeps
// visit, gives the same numbers each time.
func TestSRTOSweepShapes(t *testing.T) {
	rows, rendered := SRTOSweep(777, 400)
	var params []string
	deployed := map[string]SweepRow{}
	for _, r := range rows {
		params = append(params, r.Param)
		if r.MeanMS <= 0 || r.P90MS < r.MeanMS*0.5 || r.RetransPct <= 0 {
			t.Errorf("%s=%s: implausible row %+v", r.Param, r.Value, r)
		}
		switch r.Param + "=" + r.Value {
		case "T1=10", "T2=5", "multiple=2.0·RTT":
			deployed[r.Param] = r
		}
	}
	want := "T1 T1 T1 T1 T1 T2 T2 T2 T2 T2 multiple multiple multiple multiple"
	if got := strings.Join(params, " "); got != want {
		t.Fatalf("params = %q, want %q", got, want)
	}
	if rows[4].Value != "∞" || rows[9].Value != "∞" {
		t.Errorf("last T1/T2 values %q, %q; want ∞", rows[4].Value, rows[9].Value)
	}
	if len(deployed) != 3 {
		t.Fatalf("deployed setting found in %d sweeps, want 3", len(deployed))
	}
	for _, p := range []string{"T2", "multiple"} {
		a, b := deployed["T1"], deployed[p]
		if a.MeanMS != b.MeanMS || a.P90MS != b.P90MS || a.RetransPct != b.RetransPct {
			t.Errorf("deployed setting differs between the T1 and %s sweeps: %+v vs %+v", p, a, b)
		}
	}
	for _, title := range []string{"S-RTO T1 sweep", "S-RTO T2 sweep", "S-RTO probe-timer multiple sweep"} {
		if !strings.Contains(rendered, title) {
			t.Errorf("render lacks %q", title)
		}
	}
}

// TestStrategyComparisonShapes checks the five-strategy table: the
// probing strategies fire fewer RTOs than native Linux and do no harm
// on average, and its S-RTO row is the deployed setting of the sweep.
func TestStrategyComparisonShapes(t *testing.T) {
	rows, rendered := StrategyComparison(777, 400)
	by := map[string]StrategyRow{}
	var names []string
	for _, r := range rows {
		names = append(names, r.Strategy)
		by[r.Strategy] = r
	}
	if got := strings.Join(names, " "); got != "linux early-retransmit tlp tcp-ncl srto" {
		t.Fatalf("strategies = %q", got)
	}
	linux := by["linux"]
	for _, name := range []string{"tlp", "tcp-ncl", "srto"} {
		r := by[name]
		if r.RTOFirings >= linux.RTOFirings {
			t.Errorf("%s: %d RTO firings, native %d; want fewer", name, r.RTOFirings, linux.RTOFirings)
		}
		if r.MeanMS > linux.MeanMS*1.03 {
			t.Errorf("%s: mean %.0fms vs native %.0fms, want no harm", name, r.MeanMS, linux.MeanMS)
		}
	}
	sweep, _ := SRTOSweep(777, 400)
	if s, d := by["srto"], sweep[2]; s.MeanMS != d.MeanMS || s.P90MS != d.P90MS || s.RetransPct != d.RetransPct {
		t.Errorf("srto row %+v differs from the sweep's T1=10 row %+v", s, d)
	}
	if !strings.Contains(rendered, "All strategies") {
		t.Error("render")
	}
}
