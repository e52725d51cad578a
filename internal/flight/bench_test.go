package flight_test

import (
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// sickMix is what the analyzer hands a recorder over four generated
// flows per service at seed 11, the stall-rich mix of the benchmark's
// replay_sick workload: the records in feed order and the events they
// emit, each flow's indices and times shifted to follow the previous
// flow's, so either stream can be replayed end to end in a loop.
type sickMix struct {
	recs   []trace.Record
	events []flight.Event
	// span is how far one pass over the streams advances record
	// indices and times.
	idxSpan int
	tSpan   sim.Time
}

func loadSickMix(b *testing.B) *sickMix {
	b.Helper()
	m := &sickMix{}
	for _, svc := range workload.Services() {
		for _, fr := range workload.Generate(svc, 11, workload.GenOptions{Flows: 4}) {
			f := fr.Flow
			rec := flight.NewRecorder(flight.Config{})
			inc := core.NewIncremental(core.Config{})
			inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
			inc.SetRecorder(rec)
			// Record i emits events of records i−1 and i, so once it
			// is fed, record i−1's are all in the window.
			harvest := func(idx int) {
				for _, e := range rec.Events() {
					if e.Idx == idx {
						e.Idx += m.idxSpan
						e.T += m.tSpan
						m.events = append(m.events, e)
					}
				}
			}
			for i := range f.Records {
				inc.Feed(&f.Records[i])
				harvest(i - 1)
				r := f.Records[i]
				r.T += m.tSpan
				m.recs = append(m.recs, r)
			}
			inc.Flush()
			harvest(len(f.Records) - 1)
			m.idxSpan += len(f.Records)
			if n := len(f.Records); n > 0 {
				m.tSpan += f.Records[n-1].T + sim.Time(time.Second)
			}
		}
	}
	if len(m.events) == 0 {
		b.Fatal("the generated flows emitted no events")
	}
	return m
}

// emit replays the i-th event of the endless stream.
func (m *sickMix) emit(r *flight.Recorder, i int) {
	round := i / len(m.events)
	e := &m.events[i%len(m.events)]
	r.Emit(e.Idx+round*m.idxSpan, e.T+sim.Time(round)*m.tSpan, e.Kind, e.Name, e.A, e.B, e.C)
}

// BenchmarkEmit is the cost of one event into a default window that
// has reached its size, so Emit also trims the events it slides past.
func BenchmarkEmit(b *testing.B) {
	m := loadSickMix(b)
	r := flight.NewRecorder(flight.Config{})
	i := 0
	for ; i < 4*len(m.events); i++ {
		m.emit(r, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.emit(r, i+n)
	}
}

// BenchmarkSample is the cost of one record into a recorder whose
// pre-gap window is full.
func BenchmarkSample(b *testing.B) {
	m := loadSickMix(b)
	r := flight.NewRecorder(flight.Config{})
	for i := range m.recs {
		r.Sample(i, &m.recs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % len(m.recs)
		r.Sample(n, &m.recs[i])
	}
}
