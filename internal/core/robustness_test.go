package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// TAPO must accept arbitrary (including nonsensical) record
// sequences without panicking: real captures contain middlebox
// mangling, resets, and truncation.
func TestPropertyAnalyzerNeverPanics(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := sim.NewRNG(seed)
		fl := &trace.Flow{ID: "fuzz", MSS: 1460}
		var now sim.Time
		for i := 0; i < int(n); i++ {
			now = now.Add(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
			seg := trace.Segment{
				Flags: packet.TCPFlags(rng.Intn(256)),
				Seq:   uint32(rng.Intn(1 << 20)),
				Ack:   uint32(rng.Intn(1 << 20)),
				Len:   rng.Intn(3000),
				Wnd:   rng.Intn(1 << 17),
			}
			if rng.Bool(0.3) {
				for b := 0; b < rng.Intn(4); b++ {
					l := uint32(rng.Intn(1 << 20))
					seg.SACK.Append(packet.SACKBlock{Left: l, Right: l + uint32(rng.Intn(5000))})
				}
			}
			if rng.Bool(0.5) {
				seg.TSVal = sim.Time(rng.Intn(1 << 30))
				seg.TSEcr = sim.Time(rng.Intn(1 << 30))
			}
			dir := trace.DirOut
			if rng.Bool(0.5) {
				dir = trace.DirIn
			}
			fl.Records = append(fl.Records, trace.Record{T: now, Dir: dir, Seg: seg})
		}
		a := Analyze(fl, DefaultConfig())
		// Sanity: outputs well-formed.
		for _, st := range a.Stalls {
			if st.Duration <= 0 {
				return false
			}
			if st.Cause == CauseTimeoutRetrans && st.RetransCause == RetransNone {
				return false
			}
		}
		return !math.IsNaN(a.StalledFraction())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The stall threshold must always sit between the configured floor
// behaviour and the RTO: a property over random RTT feeding.
func TestPropertyThresholdBounds(t *testing.T) {
	f := func(rtts []uint16) bool {
		a := &analyzer{cfg: DefaultConfig(), rto: DefaultConfig().InitRTO}
		for _, r := range rtts {
			a.rttSample(time.Duration(r%2000) * time.Millisecond)
		}
		th := a.threshold()
		if th <= 0 {
			return false
		}
		return th <= a.rto
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
