package tcpsim_test

import (
	"sync"
	"testing"

	"tcpstall/internal/mitigation"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/workload"
)

// oracle wraps a recovery strategy and, after every transmit, every
// processed ACK and every RTO firing, checks the sender's kept
// Equation-1 counters against a walk of its scoreboard.
type oracle struct {
	tcpsim.Recovery
	snd    *tcpsim.Sender
	checks int
	drift  string // the first disagreement, with where it was seen
}

func (o *oracle) Attach(s *tcpsim.Sender) {
	o.snd = s
	o.Recovery.Attach(s)
}

func (o *oracle) check(after string) {
	o.checks++
	if d := tcpsim.CounterDrift(o.snd); d != "" && o.drift == "" {
		o.drift = "after " + after + " at " + o.snd.Sim().Now().String() + ": " + d
	}
}

func (o *oracle) OnSent(isRetrans bool) {
	o.check("transmit")
	o.Recovery.OnSent(isRetrans)
}

func (o *oracle) OnAck() {
	o.check("HandleAck")
	o.Recovery.OnAck()
}

func (o *oracle) OnRTO() {
	o.check("RTO")
	o.Recovery.OnRTO()
}

// TestCountersMatchWalk runs generated flows of every service under
// native recovery, TLP and S-RTO, so the probe retransmissions are
// covered, and requires the kept counters to equal the walk at every
// check.
func TestCountersMatchWalk(t *testing.T) {
	flows := map[string]int{"cloud-storage": 12, "software-download": 60, "web-search": 120}
	if testing.Short() {
		for k := range flows {
			flows[k] /= 3
		}
	}
	strategies := []struct {
		name   string
		newRec func() tcpsim.Recovery
	}{
		{"linux", func() tcpsim.Recovery { return tcpsim.NativeRecovery{} }},
		{"tlp", func() tcpsim.Recovery { return mitigation.NewTLP(mitigation.TLPConfig{}) }},
		{"srto", func() tcpsim.Recovery { return mitigation.NewSRTO(mitigation.SRTOConfig{}) }},
	}
	for _, sc := range strategies {
		t.Run(sc.name, func(t *testing.T) {
			var mu sync.Mutex
			var oracles []*oracle
			var st tcpsim.SenderStats
			for i, svc := range workload.Services() {
				res := workload.Generate(svc, 60+int64(i), workload.GenOptions{
					Flows:      flows[svc.Name],
					SkipTraces: true,
					NewRecovery: func() tcpsim.Recovery {
						o := &oracle{Recovery: sc.newRec()}
						mu.Lock()
						oracles = append(oracles, o)
						mu.Unlock()
						return o
					},
				})
				for _, r := range res {
					st.RTOFirings += r.Metrics.Sender.RTOFirings
					st.ProbeRetransmits += r.Metrics.Sender.ProbeRetransmits
					st.SpuriousRetrans += r.Metrics.Sender.SpuriousRetrans
					st.EnteredRecovery += r.Metrics.Sender.EnteredRecovery
				}
			}
			checks := 0
			for _, o := range oracles {
				checks += o.checks
				if o.drift != "" {
					t.Error(o.drift)
				}
			}
			t.Logf("%d checks over %d flows: %d RTO firings, %d probe retransmissions, %d DSACKs, %d recoveries",
				checks, len(oracles), st.RTOFirings, st.ProbeRetransmits, st.SpuriousRetrans, st.EnteredRecovery)
			if st.RTOFirings == 0 || st.SpuriousRetrans == 0 || st.EnteredRecovery == 0 {
				t.Error("the flows exercise too little of the scoreboard")
			}
			if sc.name != "linux" && st.ProbeRetransmits == 0 {
				t.Errorf("%s sent no probe retransmission", sc.name)
			}
		})
	}
}
