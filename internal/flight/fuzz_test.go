package flight

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// fuzzInput hands out the fuzzer's bytes; past the end it reads
// zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) uint64() uint64 {
	var w [8]byte
	n := copy(w[:], *in)
	*in = (*in)[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// value is an int64 payload: the extremes and the small values the
// analyzer emits are picked often, any 64-bit pattern otherwise.
func (in *fuzzInput) value() int64 {
	switch sel := in.byte(); sel % 8 {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	case 3:
		return int64(int8(in.byte()))
	case 4:
		return int64(int16(in.uint64()))
	case 5:
		return int64(int32(in.uint64()))
	default:
		return int64(in.uint64())
	}
}

// FuzzFlightWindow drives a recorder with an arbitrary stream of
// emits, samples, closed stalls and finalizations and checks it
// against a naive model: the window must hold exactly the events of
// the last WindowK+2 records emitted, its buffer at most twice the
// most events it has held, and every retained evidence must hold the
// events the model held at close from record StartIdx − WindowK on,
// and its window of samples. The first bytes pick WindowK (any int8,
// so zero and negatives select the default) and MaxStalls; Idx never
// decreases, T moves by deltas of either sign, payloads include the
// int64 extremes, and Kind and Name are any byte.
func FuzzFlightWindow(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte{1, 2, 3, 0, 1, 1, 1, 2, 2, 2, 6, 0, 1, 0, 5, 9, 7, 0})
	// A 2-record window slid many times over by events of every
	// payload class, with samples, stalls and finalizations between.
	seed := []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for i := range 200 {
		b := byte(i)
		seed = append(seed, b%8, b%4, 2, b, b*7, 3, b, 1+b%7, 2, 0)
		for range 8 {
			seed = append(seed, b*31)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		cfg := Config{WindowK: int(int8(in.byte())), MaxStalls: 1 + int(in.byte()%8)}
		r := NewRecorder(cfg)
		k := cfg.WithDefaults().WindowK

		var all []Event         // every event emitted, oldest first
		var samples []RecSample // every record sampled, oldest first
		type want struct {
			events []Event
			window int // index into samples of the window's first record
			closed int // samples taken when the stall closed
		}
		wants := map[int]want{}
		held := func() []Event {
			if len(all) == 0 {
				return nil
			}
			var out []Event
			for _, e := range all {
				if e.Idx >= all[len(all)-1].Idx-k-1 {
					out = append(out, e)
				}
			}
			return out
		}
		idx, tm := int(int32(in.uint64())), sim.Time(in.value())
		stall, peak := 0, 0
		for ops := 0; len(in) > 0 && ops < 2000; ops++ {
			switch op := in.byte(); op % 8 {
			case 0, 1, 2, 3, 4:
				switch s := in.byte(); s % 4 {
				case 0, 1:
					idx += int(s % 4)
				case 2:
					idx += int(in.byte())
				case 3:
					idx += int(uint32(in.uint64()))
				}
				tm += sim.Time(in.value())
				e := Event{Idx: idx, T: tm, Kind: Kind(in.byte()), Name: Name(in.byte()),
					A: in.value(), B: in.value(), C: in.value()}
				r.Emit(e.Idx, e.T, e.Kind, e.Name, e.A, e.B, e.C)
				all = append(all, e)
				peak = max(peak, len(held()))
				if n := len(r.events.buf); n > max(16, 2*peak) {
					t.Fatalf("window buffer of %d events, at most %d held", n, peak)
				}
			case 5:
				rec := &trace.Record{T: tm, Dir: trace.Dir(op >> 7), Seg: trace.Segment{
					Seq: uint32(in.uint64()), Ack: uint32(idx), Len: int(in.byte()), Wnd: int(in.byte())}}
				r.Sample(idx, rec)
				samples = append(samples, SampleOf(idx, rec))
			case 6:
				startIdx := idx - int(in.byte()%16)
				var w want
				for _, e := range held() {
					if e.Idx >= startIdx-k {
						w.events = append(w.events, e)
					}
				}
				w.window = max(0, len(samples)-(k+1))
				w.closed = len(samples)
				wants[stall] = w
				r.StallClosed(Ref{"f", stall}, startIdx, startIdx+1, 0, 0)
				stall++
			case 7:
				if stall > 0 {
					r.Settle(int(in.byte())%stall, "settled", "", "", nil)
				}
			}
			if got := r.Events(); !slices.Equal(got, held()) {
				t.Fatalf("after %d events: Events() = %v, want %v", len(all), got, held())
			}
		}
		if got, want := r.EvidenceDrops(), uint64(max(0, stall-cfg.MaxStalls)); got != want {
			t.Fatalf("EvidenceDrops = %d, want %d", got, want)
		}
		for _, ev := range r.Evidences() {
			w := wants[ev.Ref.Stall]
			if got := ev.Events(); !slices.Equal(got, w.events) {
				t.Fatalf("stall %d: evidence events %v, want %v", ev.Ref.Stall, got, w.events)
			}
			end := min(len(samples), w.closed+k)
			if got := ev.Window; !slices.Equal(got, samples[w.window:end]) {
				t.Fatalf("stall %d: window %v, want %v", ev.Ref.Stall, got, samples[w.window:end])
			}
		}
	})
}
