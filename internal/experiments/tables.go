package experiments

import (
	"fmt"

	"tcpstall/internal/core"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
)

// Table1Row reproduces one row of Table 1 (flow-level dataset
// statistics).
type Table1Row struct {
	Service  string
	Flows    int
	AvgSpeed float64 // bytes/second
	AvgSize  float64 // bytes
	LossPct  float64 // retransmitted packets / data packets
	AvgRTTms float64
	AvgRTOms float64
}

// Table1 computes the dataset statistics.
func Table1(ds []*Dataset) ([]Table1Row, string) {
	rows := make([]Table1Row, 0, len(ds))
	t := stats.NewTable("Table 1: Flow-level statistics of the dataset.",
		"service", "#flows", "avg.speed(B/s)", "avg.flow size", "pkt loss", "avg.RTT", "avg.RTO")
	for _, d := range ds {
		var speedSum, sizeSum, rttSum, rtoSum float64
		var rttN, rtoN, lossPkts, totPkts float64
		done := 0
		aix := d.analysisByID()
		for _, r := range d.doneFlows() {
			done++
			sizeSum += float64(r.Metrics.BytesServed)
			if lat := r.Metrics.FlowLatency(); lat > 0 {
				speedSum += float64(r.Metrics.BytesServed) / lat.Seconds()
			}
			a := aix[r.Flow.ID]
			if a == nil {
				continue
			}
			lossPkts += float64(a.RetransPackets)
			totPkts += float64(a.DataPackets + a.RetransPackets)
			if v := a.AvgRTT(); v > 0 {
				rttSum += v
				rttN++
			}
			if v := a.AvgRTO(); v > 0 {
				rtoSum += v
				rtoN++
			}
		}
		row := Table1Row{
			Service:  d.Service.Name,
			Flows:    done,
			AvgSize:  sizeSum / maxF(float64(done), 1),
			AvgSpeed: speedSum / maxF(float64(done), 1),
			LossPct:  100 * lossPkts / maxF(totPkts, 1),
			AvgRTTms: rttSum / maxF(rttN, 1),
			AvgRTOms: rtoSum / maxF(rtoN, 1),
		}
		rows = append(rows, row)
		t.AddRow(ShortName(row.Service),
			fmt.Sprintf("%d", row.Flows),
			fmt.Sprintf("%.0fK", row.AvgSpeed/1000),
			humanBytes(row.AvgSize),
			fmt.Sprintf("%.1f%%", row.LossPct),
			fmt.Sprintf("%.0fms", row.AvgRTTms),
			fmt.Sprintf("%.1fs", row.AvgRTOms/1000),
		)
	}
	return rows, t.String()
}

func humanBytes(b float64) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.1fMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fKB", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Table3Cell is one (volume%, time%) pair of Table 3.
type Table3Cell struct{ CountPct, TimePct float64 }

// Table3Result maps service → cause → cell.
type Table3Result map[string]map[core.Cause]Table3Cell

// Table3 computes the stall-cause breakdown by volume and time.
func Table3(ds []*Dataset) (Table3Result, string) {
	causes := []core.Cause{
		core.CauseDataUnavailable, core.CauseResourceConstraint,
		core.CauseClientIdle, core.CauseZeroWindow,
		core.CausePacketDelay, core.CauseTimeoutRetrans,
		core.CauseUndetermined,
	}
	res := Table3Result{}
	header := []string{"category", "stall type"}
	for _, d := range ds {
		header = append(header, ShortName(d.Service.Name)+" #", "T")
	}
	t := stats.NewTable("Table 3: Percentage of stalls (%) in terms of volume (#) and time (T).", header...)
	for _, d := range ds {
		m := map[core.Cause]Table3Cell{}
		for _, c := range causes {
			m[c] = Table3Cell{
				CountPct: 100 * d.Report.CausePctCount(c),
				TimePct:  100 * d.Report.CausePctTime(c),
			}
		}
		res[d.Service.Name] = m
	}
	for _, c := range causes {
		row := []string{core.CategoryOf(c).String(), c.String()}
		for _, d := range ds {
			cell := res[d.Service.Name][c]
			row = append(row, fmt.Sprintf("%.1f", cell.CountPct), fmt.Sprintf("%.1f", cell.TimePct))
		}
		t.AddRow(row...)
	}
	return res, t.String()
}

// Table4Row is one init-rwnd bucket's zero-window probability.
type Table4Row struct {
	Service string
	InitMSS int
	Flows   int
	ZeroPct float64
}

// Table4Buckets are the paper's init-rwnd columns (MSS).
var Table4Buckets = []int{2, 11, 45, 182, 648, 1297}

// Table4 computes the probability of a flow suffering a zero receive
// window as a function of the SYN-advertised window.
func Table4(ds []*Dataset) ([]Table4Row, string) {
	var rows []Table4Row
	header := append([]string{"init rwnd (MSS)"}, func() []string {
		var h []string
		for _, b := range Table4Buckets {
			h = append(h, fmt.Sprintf("%d", b))
		}
		return h
	}()...)
	t := stats.NewTable("Table 4: Percentage of flows suffering from zero rwnd as a function of the initial rwnd (%).", header...)
	for _, d := range ds {
		if d.Service.Name == "web-search" {
			continue // the paper tabulates the two download services
		}
		aix := d.analysisByID()
		type agg struct{ flows, zero int }
		byBucket := map[int]*agg{}
		for _, r := range d.doneFlows() {
			a := aix[r.Flow.ID]
			if a == nil {
				continue
			}
			b := nearestBucket(a.InitRwnd / d.Service.MSS)
			if byBucket[b] == nil {
				byBucket[b] = &agg{}
			}
			byBucket[b].flows++
			if a.ZeroRwndSeen {
				byBucket[b].zero++
			}
		}
		row := []string{ShortName(d.Service.Name)}
		for _, b := range Table4Buckets {
			if ag := byBucket[b]; ag != nil && ag.flows > 0 {
				pct := 100 * float64(ag.zero) / float64(ag.flows)
				rows = append(rows, Table4Row{Service: d.Service.Name, InitMSS: b, Flows: ag.flows, ZeroPct: pct})
				row = append(row, fmt.Sprintf("%.1f", pct))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return rows, t.String()
}

// nearestBucket snaps an init-rwnd (in MSS) to the closest Table-4
// column.
func nearestBucket(mss int) int {
	best := Table4Buckets[0]
	bestD := abs(mss - best)
	for _, b := range Table4Buckets[1:] {
		if d := abs(mss - b); d < bestD {
			best, bestD = b, d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Table5Result maps service → retransmission sub-cause → cell.
type Table5Result map[string]map[core.RetransCause]Table3Cell

// Table5 computes the retransmission-stall breakdown.
func Table5(ds []*Dataset) (Table5Result, string) {
	causes := []core.RetransCause{
		core.RetransDouble, core.RetransTail,
		core.RetransSmallCwnd, core.RetransSmallRwnd,
		core.RetransContinuousLoss, core.RetransAckDelayLoss,
		core.RetransUndetermined,
	}
	res := Table5Result{}
	header := []string{"stall type"}
	for _, d := range ds {
		header = append(header, ShortName(d.Service.Name)+" #", "T")
	}
	t := stats.NewTable("Table 5: Percentage of retransmission stalls (%) in terms of volume (#) and time (T).", header...)
	for _, d := range ds {
		m := map[core.RetransCause]Table3Cell{}
		for _, c := range causes {
			m[c] = Table3Cell{
				CountPct: 100 * d.Report.RetransPctCount(c),
				TimePct:  100 * d.Report.RetransPctTime(c),
			}
		}
		res[d.Service.Name] = m
	}
	for _, c := range causes {
		row := []string{c.String()}
		for _, d := range ds {
			cell := res[d.Service.Name][c]
			row = append(row, fmt.Sprintf("%.1f", cell.CountPct), fmt.Sprintf("%.1f", cell.TimePct))
		}
		t.AddRow(row...)
	}
	return res, t.String()
}

// Table6Result maps service → f-double / t-double stall-time shares.
type Table6Result map[string]map[core.DoubleKind]float64

// Table6 computes the double-retransmission kind split.
func Table6(ds []*Dataset) (Table6Result, string) {
	res := Table6Result{}
	header := []string{"kind"}
	for _, d := range ds {
		header = append(header, ShortName(d.Service.Name))
	}
	t := stats.NewTable("Table 6: Percentage of each type of double retransmission stalls in terms of stalled time.", header...)
	for _, d := range ds {
		res[d.Service.Name] = map[core.DoubleKind]float64{
			core.DoubleFast:    100 * d.Report.DoublePctTime(core.DoubleFast),
			core.DoubleTimeout: 100 * d.Report.DoublePctTime(core.DoubleTimeout),
		}
	}
	for _, k := range []core.DoubleKind{core.DoubleFast, core.DoubleTimeout} {
		row := []string{k.String() + " stall"}
		for _, d := range ds {
			row = append(row, fmt.Sprintf("%.1f%%", res[d.Service.Name][k]))
		}
		t.AddRow(row...)
	}
	return res, t.String()
}

// Table7Result maps service → congestion state → tail-stall-time
// share.
type Table7Result map[string]map[trace.CongState]float64

// Table7 computes where tail retransmission stalls happen.
func Table7(ds []*Dataset) (Table7Result, string) {
	res := Table7Result{}
	header := []string{"state"}
	for _, d := range ds {
		header = append(header, ShortName(d.Service.Name))
	}
	t := stats.NewTable("Table 7: Percentage of each type of tail retransmission stalls in terms of stalled time.", header...)
	for _, d := range ds {
		res[d.Service.Name] = map[trace.CongState]float64{
			trace.StateOpen:     100 * d.Report.TailPctTime(trace.StateOpen),
			trace.StateRecovery: 100 * d.Report.TailPctTime(trace.StateRecovery),
		}
	}
	for _, st := range []trace.CongState{trace.StateOpen, trace.StateRecovery} {
		row := []string{st.String() + " state"}
		for _, d := range ds {
			row = append(row, fmt.Sprintf("%.1f%%", res[d.Service.Name][st]))
		}
		t.AddRow(row...)
	}
	return res, t.String()
}
