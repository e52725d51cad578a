package core

import (
	"fmt"
	"testing"

	"tcpstall/internal/netem"
	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// benchFlow builds one large lossy flow for classifier throughput
// measurement.
func benchFlow(b *testing.B, size int64) *trace.Flow {
	b.Helper()
	s := sim.New()
	rng := sim.NewRNG(1)
	down := netem.New(s, rng, netem.Config{Delay: 20e6, Loss: netem.Bernoulli{P: 0.02}})
	up := netem.New(s, rng, netem.Config{Delay: 20e6})
	col := trace.NewCollector("bench", "bench")
	conn := tcpsim.NewLinkedConn(s, tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: size}},
	}, down, up, col)
	conn.Start()
	s.Run()
	if !conn.Metrics().Done {
		b.Fatal("bench flow did not complete")
	}
	return col.Flow
}

// BenchmarkAnalyze measures TAPO throughput on a ~2MB lossy flow
// (thousands of records), in bytes of analyzed stream per op.
func BenchmarkAnalyze(b *testing.B) {
	fl := benchFlow(b, 2_000_000)
	cfg := DefaultConfig()
	b.SetBytes(fl.DataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(fl, cfg)
	}
}

// BenchmarkAnalyzeShort measures the per-flow overhead on web-search
// sized flows.
func BenchmarkAnalyzeShort(b *testing.B) {
	fl := benchFlow(b, 14_000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(fl, cfg)
	}
}

// BenchmarkFeed and BenchmarkFeedBatch drive the incremental analyzer
// over the same ~2MB lossy flow per-record and batched. The delta is
// the pure call overhead FeedBatch amortizes — exactly what the live
// shard loop saves by grouping its drained batches into per-flow
// runs. Run with -benchmem to see the per-flow allocation profile.
func BenchmarkFeed(b *testing.B) {
	fl := benchFlow(b, 2_000_000)
	cfg := DefaultConfig()
	b.SetBytes(fl.DataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(cfg)
		for j := range fl.Records {
			inc.Feed(&fl.Records[j])
		}
		inc.Flush()
	}
}

// longFlow builds one synthetic flow of n full-size data segments, sent
// in flights of 32 with one segment in every 64 lost mid-flight: the
// receiver SACKs the 23 segments past the hole, the sender
// fast-retransmits it, and the next cumulative ACK covers the flight.
// Every data segment draws one ACK, so the flow is about 2n records
// and the scoreboard holds n entries.
func longFlow(n int) []trace.Record {
	const flight = 32
	recs := synHandshake()
	t := 21.0
	for lo := 0; lo < n; lo += flight {
		hi := min(lo+flight, n)
		for i := lo; i < hi; i++ {
			recs = append(recs, synData(t, segSeq(i), segLen))
			t += 0.1
		}
		t += 10
		hole := -1
		for i := lo; i < hi; i++ {
			switch {
			case i%64 == 40:
				hole = i // lost: no ACK for it
			case hole < 0:
				recs = append(recs, synAck(t, segSeq(i+1)))
			default:
				recs = append(recs, synAck(t, segSeq(hole), packet.SACKBlock{Left: segSeq(hole + 1), Right: segSeq(i + 1)}))
			}
			t += 0.1
		}
		if hole >= 0 {
			recs = append(recs, synData(t, segSeq(hole), segLen))
			t += 10
			recs = append(recs, synAck(t, segSeq(hi)))
		}
		t += 0.1
	}
	return recs
}

// BenchmarkFeedLongFlow measures the per-record cost of one long flow
// at two lengths. A scoreboard rescanned on every ACK makes the cost
// grow with flow length; counters and the acked-prefix cursor keep it
// flat. Run with -benchmem.
func BenchmarkFeedLongFlow(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		recs := longFlow(n)
		b.Run(fmt.Sprintf("segs=%dk", n>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inc := NewIncremental(DefaultConfig())
				inc.FeedBatch(recs)
				inc.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}

func BenchmarkFeedBatch(b *testing.B) {
	fl := benchFlow(b, 2_000_000)
	cfg := DefaultConfig()
	b.SetBytes(fl.DataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(cfg)
		inc.FeedBatch(fl.Records)
		inc.Flush()
	}
}

// wideRetrans builds one flow that sends n full-size segments, then,
// after an RTO-sized silence, retransmits all of them — in offset order
// (go-back-N) or from the top down — before one cumulative ACK covers
// them. Every retransmission looks its segment up in an n-entry window,
// so this is the scoreboard lookup's worst case.
func wideRetrans(n int, topDown bool) []trace.Record {
	recs := synHandshake()
	t := 30.0
	for i := 0; i < n; i++ {
		recs = append(recs, synData(t, segSeq(i), segLen))
		t += 0.01
	}
	t += 1000
	for k := 0; k < n; k++ {
		i := k
		if topDown {
			i = n - 1 - k
		}
		recs = append(recs, synData(t, segSeq(i), segLen))
		t += 0.01
	}
	return append(recs, synAck(t+20, segSeq(n)))
}

// BenchmarkFeedWideRetrans measures the per-record cost of
// retransmitting a whole 1k- or 4k-segment window, go-back-N and top
// down. Run with -benchmem.
func BenchmarkFeedWideRetrans(b *testing.B) {
	for _, order := range []string{"gobackn", "topdown"} {
		for _, n := range []int{1 << 10, 1 << 12} {
			recs := wideRetrans(n, order == "topdown")
			b.Run(fmt.Sprintf("%s/segs=%dk", order, n>>10), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					inc := NewIncremental(DefaultConfig())
					inc.FeedBatch(recs)
					inc.Flush()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
			})
		}
	}
}
