// Package core implements TAPO, the paper's TCP performance
// diagnosis tool: it replays a server-side packet trace through a
// mimic of the Linux TCP stack to reconstruct the Table-2 variables
// (congestion state, in_flight, sacked_out/lost_out/retrans_out,
// SRTT/RTO, rwnd, file position), detects stalls — inter-packet gaps
// exceeding min(τ·SRTT, RTO) — and classifies each stall's root cause
// with the decision tree of Figure 5, breaking timeout-retransmission
// stalls down further per Table 5.
package core

import (
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// Cause is a top-level stall cause (Figure 5 / Table 3).
type Cause int

// Top-level causes, grouped as the paper groups them: server, client,
// network.
const (
	CauseUndetermined Cause = iota
	// Server-side.
	CauseDataUnavailable    // head-of-response wait on the back end
	CauseResourceConstraint // mid-response server app stall
	// Client-side.
	CauseClientIdle // no request outstanding, client thinking
	CauseZeroWindow // client advertised rwnd = 0
	// Network.
	CausePacketDelay    // delayed packets/ACKs without retransmission
	CauseTimeoutRetrans // stall ended by a timeout retransmission
)

var causeNames = map[Cause]string{
	CauseUndetermined:       "undetermined",
	CauseDataUnavailable:    "data-unavailable",
	CauseResourceConstraint: "resource-constraint",
	CauseClientIdle:         "client-idle",
	CauseZeroWindow:         "zero-rwnd",
	CausePacketDelay:        "pkt-delay",
	CauseTimeoutRetrans:     "retransmission",
}

func (c Cause) String() string { return causeNames[c] }

// Category buckets a cause as in Table 3.
type Category int

// Categories of Table 3.
const (
	CategoryServer Category = iota
	CategoryClient
	CategoryNetwork
	CategoryUnknown
)

func (c Category) String() string {
	switch c {
	case CategoryServer:
		return "server"
	case CategoryClient:
		return "client"
	case CategoryNetwork:
		return "network"
	default:
		return "unknown"
	}
}

// CategoryOf maps causes to Table-3 categories.
func CategoryOf(c Cause) Category {
	switch c {
	case CauseDataUnavailable, CauseResourceConstraint:
		return CategoryServer
	case CauseClientIdle, CauseZeroWindow:
		return CategoryClient
	case CausePacketDelay, CauseTimeoutRetrans:
		return CategoryNetwork
	default:
		return CategoryUnknown
	}
}

// RetransCause is a timeout-retransmission sub-cause (Table 5). The
// declaration order IS the paper's examination precedence.
type RetransCause int

// Sub-causes in Table-5 precedence order.
const (
	RetransNone RetransCause = iota
	RetransDouble
	RetransTail
	RetransSmallCwnd
	RetransSmallRwnd
	RetransContinuousLoss
	RetransAckDelayLoss
	RetransUndetermined
)

var retransNames = map[RetransCause]string{
	RetransNone:           "none",
	RetransDouble:         "double-retrans",
	RetransTail:           "tail-retrans",
	RetransSmallCwnd:      "small-cwnd",
	RetransSmallRwnd:      "small-rwnd",
	RetransContinuousLoss: "continuous-loss",
	RetransAckDelayLoss:   "ack-delay-loss",
	RetransUndetermined:   "undetermined",
}

func (c RetransCause) String() string { return retransNames[c] }

// DoubleKind splits double-retransmission stalls (Table 6) by how the
// FIRST retransmission was recovered.
type DoubleKind int

// Kinds of double retransmission.
const (
	DoubleNone    DoubleKind = iota
	DoubleFast               // f-double: first retransmission was a fast retransmit
	DoubleTimeout            // t-double: first retransmission was itself a timeout
)

func (k DoubleKind) String() string {
	switch k {
	case DoubleFast:
		return "f-double"
	case DoubleTimeout:
		return "t-double"
	default:
		return "none"
	}
}

// Stall is one detected-and-classified stall event.
type Stall struct {
	// ID is the stall's flow-scoped monotonic identifier (0-based, in
	// detection order). Live stall events, the admin planes,
	// groundtruth grading and flight-recorder evidence all key on it.
	ID int
	// Start/End bound the silent gap; Duration = End − Start.
	Start    sim.Time
	End      sim.Time
	Duration time.Duration
	// EndRecIdx indexes the record ending the stall (cur_pkt).
	EndRecIdx int

	// Evidence, when a flight recorder was attached, names the
	// recorder entry holding this stall's decision path and record
	// window; nil in disabled mode.
	Evidence *flight.Ref

	Cause        Cause
	RetransCause RetransCause
	DoubleKind   DoubleKind

	// Context captured at stall start (after processing the last
	// pre-stall record).
	CaState    trace.CongState
	InFlight   int // Equation 1
	PacketsOut int
	Rwnd       int
	CwndEst    int

	// Position is the retransmitted packet's ordinal divided by the
	// flow's distinct data packet count (Figures 7a/10a); −1 when not
	// a retransmission stall.
	Position float64
	// TailState is the congestion state for tail stalls (Table 7).
	TailState trace.CongState
}

// FlowAnalysis is TAPO's per-flow output.
type FlowAnalysis struct {
	FlowID  string
	Service string

	Stalls []Stall
	// TotalStallTime sums stall durations; TransmissionTime is the
	// flow's first-to-last-record span.
	TotalStallTime   time.Duration
	TransmissionTime time.Duration

	// RTTSamplesMS holds one sample per non-retransmitted segment;
	// RTOSamplesMS one per timeout retransmission (Figure 1). Both are
	// filled only under Config.PerACKSeries; AvgRTT and AvgRTO do not
	// need them.
	RTTSamplesMS []float64
	RTOSamplesMS []float64

	// InFlightOnAck records Equation-1 in_flight evaluated on every
	// incoming ACK (Figure 11), only under Config.PerACKSeries.
	InFlightOnAck []int

	// rtt and rto are the running sums behind AvgRTT and AvgRTO, kept
	// whether or not the series are, so a flow's state does not grow
	// with its length.
	rtt, rto runningMean

	// InitRwnd is the SYN-advertised window; ZeroRwndSeen reports
	// whether any incoming segment advertised zero (Table 4).
	InitRwnd     int
	ZeroRwndSeen bool

	// DataPackets counts distinct data segments; DataBytes the
	// stream span.
	DataPackets int
	DataBytes   int64
	// RetransPackets counts retransmitted copies (Table 9).
	RetransPackets int
}

// StalledFraction reports stall time over transmission time (Fig 3).
func (a *FlowAnalysis) StalledFraction() float64 {
	if a.TransmissionTime <= 0 {
		return 0
	}
	f := float64(a.TotalStallTime) / float64(a.TransmissionTime)
	if f > 1 {
		f = 1
	}
	return f
}

// AvgRTT reports the mean RTT sample in milliseconds.
func (a *FlowAnalysis) AvgRTT() float64 { return a.rtt.mean() }

// AvgRTO reports the mean RTO sample in milliseconds.
func (a *FlowAnalysis) AvgRTO() float64 { return a.rto.mean() }

// runningMean sums samples in arrival order, so its mean is the same
// float64 a pass over the stored series would give.
type runningMean struct {
	sum float64
	n   int
}

func (m *runningMean) add(x float64) {
	m.sum += x
	m.n++
}

func (m *runningMean) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}
