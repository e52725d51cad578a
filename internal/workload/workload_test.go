package workload

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/tcpsim"
)

func TestGenerateReproducible(t *testing.T) {
	a := Generate(WebSearch(), 7, GenOptions{Flows: 20})
	b := Generate(WebSearch(), 7, GenOptions{Flows: 20})
	for i := range a {
		if a[i].Metrics.FlowLatency() != b[i].Metrics.FlowLatency() {
			t.Fatalf("flow %d latency differs", i)
		}
		if len(a[i].Flow.Records) != len(b[i].Flow.Records) {
			t.Fatalf("flow %d record count differs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(WebSearch(), 1, GenOptions{Flows: 10})
	b := Generate(WebSearch(), 2, GenOptions{Flows: 10})
	same := 0
	for i := range a {
		if a[i].Metrics.FlowLatency() == b[i].Metrics.FlowLatency() {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestServiceShapesMatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check is slow")
	}
	type expect struct {
		svc        Service
		sizeLo     float64
		sizeHi     float64
		rttLo      float64 // ms
		rttHi      float64
		lossMaxPct float64
	}
	cases := []expect{
		{CloudStorage(), 600_000, 4_000_000, 90, 235, 8},
		{SoftwareDownload(), 60_000, 300_000, 90, 235, 8},
		{WebSearch(), 7_000, 35_000, 60, 180, 6},
	}
	for _, c := range cases {
		n := 120
		res := Generate(c.svc, 42, GenOptions{Flows: n})
		var bytes, rttSum, rttN float64
		done := 0
		for _, r := range res {
			if !r.Metrics.Done {
				continue
			}
			done++
			bytes += float64(r.Metrics.BytesServed)
			a := core.Analyze(r.Flow, core.DefaultConfig())
			if v := a.AvgRTT(); v > 0 {
				rttSum += v
				rttN++
			}
		}
		if done < n*9/10 {
			t.Errorf("%s: only %d/%d flows completed", c.svc.Name, done, n)
		}
		avgSize := bytes / float64(done)
		if avgSize < c.sizeLo || avgSize > c.sizeHi {
			t.Errorf("%s: avg size %.0f outside [%v, %v]", c.svc.Name, avgSize, c.sizeLo, c.sizeHi)
		}
		avgRTT := rttSum / rttN
		if avgRTT < c.rttLo || avgRTT > c.rttHi {
			t.Errorf("%s: avg RTT %.0fms outside [%v, %v]", c.svc.Name, avgRTT, c.rttLo, c.rttHi)
		}
	}
}

func TestInitRwndMixture(t *testing.T) {
	res := Generate(SoftwareDownload(), 11, GenOptions{Flows: 150})
	small := 0
	for _, r := range res {
		if r.Flow.InitRwnd < 12*1460 {
			small++
		}
	}
	frac := float64(small) / float64(len(res))
	// Figure 6: ~18% of software-download flows below ~10 MSS.
	if math.Abs(frac-0.18) > 0.10 {
		t.Errorf("small init-rwnd fraction = %.2f, want ≈0.18", frac)
	}
}

func TestShortFlowsFinishFast(t *testing.T) {
	res := Generate(WebSearch(), 13, GenOptions{Flows: 60})
	slow := 0
	for _, r := range res {
		if !r.Metrics.Done {
			t.Fatalf("flow did not complete")
		}
		if r.Metrics.FlowLatency() > 10*time.Second {
			slow++
		}
	}
	if slow > len(res)/5 {
		t.Errorf("%d/%d web-search flows took >10s", slow, len(res))
	}
}

func TestSkipTraces(t *testing.T) {
	res := Generate(WebSearch(), 3, GenOptions{Flows: 5, SkipTraces: true})
	for _, r := range res {
		if r.Flow != nil {
			t.Fatal("trace collected despite SkipTraces")
		}
		if r.Metrics == nil {
			t.Fatal("metrics missing")
		}
	}
}

func TestServicesList(t *testing.T) {
	svcs := Services()
	if len(svcs) != 3 {
		t.Fatalf("services = %d", len(svcs))
	}
	names := map[string]bool{}
	for _, s := range svcs {
		names[s.Name] = true
	}
	for _, want := range []string{"cloud-storage", "software-download", "web-search"} {
		if !names[want] {
			t.Errorf("missing service %s", want)
		}
	}
}

func TestCloudStorageShortPopulation(t *testing.T) {
	res := Generate(CloudStorageShort(), 3, GenOptions{Flows: 100, SkipTraces: true})
	for _, r := range res {
		if r.Metrics.BytesServed >= ShortFlowLimit {
			t.Fatalf("short-flow variant produced %d bytes", r.Metrics.BytesServed)
		}
	}
}

func TestMutateHook(t *testing.T) {
	var calls atomic.Int32 // Generate's workers call Mutate concurrently
	Generate(WebSearch(), 4, GenOptions{
		Flows:      5,
		SkipTraces: true,
		Mutate: func(c *tcpsim.ConnConfig) {
			calls.Add(1)
			if c.Sender.MSS != 1460 {
				t.Errorf("mutate sees MSS %d", c.Sender.MSS)
			}
		},
	})
	if n := calls.Load(); n != 5 {
		t.Errorf("Mutate called %d times", n)
	}
}

func TestDeadlineOption(t *testing.T) {
	// An absurdly short deadline aborts connections.
	res := Generate(CloudStorage(), 5, GenOptions{Flows: 5, SkipTraces: true,
		Deadline: 50 * time.Millisecond})
	for _, r := range res {
		if r.Metrics.Done {
			t.Fatal("flow completed under a 50ms deadline")
		}
	}
}
