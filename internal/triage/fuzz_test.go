package triage

import (
	"encoding/binary"
	"reflect"
	"testing"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// fuzzInput reads a fuzz input front to back; past its end every read
// is zero.
type fuzzInput struct{ b []byte }

func (z *fuzzInput) more() bool { return len(z.b) > 0 }

func (z *fuzzInput) byte() byte {
	if len(z.b) == 0 {
		return 0
	}
	v := z.b[0]
	z.b = z.b[1:]
	return v
}

func (z *fuzzInput) u64() uint64 {
	var w [8]byte
	n := copy(w[:], z.b)
	z.b = z.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// record reads the next record, built on prev so that runs of small
// changes, the common case on a healthy flow, are as likely as values
// of any width. Mask bits: 0 the direction; 1-4 a full-width time,
// Seq/Ack, Len/Wnd or TSVal/TSEcr in place of a small step; 5 new
// flags; 6 up to four SACK blocks of any width; 7 a Dir that is
// neither DirOut nor DirIn.
func (z *fuzzInput) record(prev *trace.Record) trace.Record {
	m := z.byte()
	r := *prev
	r.Seg.SACK.Reset()
	r.Dir = trace.Dir(m & 1)
	s := &r.Seg
	if m&2 != 0 {
		r.T = sim.Time(z.u64())
	} else {
		r.T += sim.Time(z.byte()) * 1000
	}
	if m&4 != 0 {
		s.Seq, s.Ack = uint32(z.u64()), uint32(z.u64())
	} else {
		s.Seq += uint32(s.Len)
		s.Ack += uint32(z.byte())
	}
	if m&8 != 0 {
		s.Len, s.Wnd = int(z.u64()), int(z.u64())
	} else {
		s.Len = int(z.byte()) * 8
		s.Wnd += int(int8(z.byte()))
	}
	if m&16 != 0 {
		s.TSVal, s.TSEcr = sim.Time(z.u64()), sim.Time(z.u64())
	} else {
		s.TSVal += sim.Time(z.byte()) * 1000
	}
	if m&32 != 0 {
		s.Flags = packet.TCPFlags(z.byte())
	}
	if m&64 != 0 {
		for k := int(z.byte() % (packet.MaxSACKBlocks + 1)); k > 0; k-- {
			s.SACK.Append(packet.SACKBlock{Left: uint32(z.u64()), Right: uint32(z.u64())})
		}
	}
	if m&128 != 0 {
		r.Dir = trace.Dir(int8(z.byte()))
	}
	return r
}

// FuzzTriageRing drives arbitrary record streams through Observe,
// Attach, ReplayUnfed, spill while parked and Release, and checks the
// ring against a naive model: a list of every record observed, of
// which the last RingCap are retained. The first byte sizes the ring
// (2 + byte; 0xFF = 4096), so chunk edges and capacity wrap both fall
// anywhere in the stream. Then each op byte selects, by its value
// modulo 8: 5 Attach, 6 ReplayUnfed (on an attached flow), 7 Release
// and a fresh flow on the same arena, else Observe of one record
// (fuzzInput.record). Every record handed back, by spill or replay,
// must equal the model's record at fed, and Total, RingStart and Fed
// must match the model after every op.
func FuzzTriageRing(f *testing.F) {
	// A healthy-looking run through a 5-record ring: observe, attach,
	// replay, park long enough to spill, replay again.
	healthy := []byte{3}
	for i := 0; i < 40; i++ {
		healthy = append(healthy, 0, byte(i%2), 7, 3, 180, 1, 9)
		switch i {
		case 7:
			healthy = append(healthy, 5, 6)
		case 20, 39:
			healthy = append(healthy, 6)
		}
	}
	f.Add(healthy)
	// Full-width fields, SACK blocks and an odd Dir, then release and
	// a second flow on the recycled chunks.
	wide := []byte{0}
	for i := 0; i < 6; i++ {
		wide = append(wide, 0, 0xFF)
		for k := 0; k < 9*8+4; k++ {
			wide = append(wide, byte(0xFF-k*i))
		}
	}
	wide = append(wide, 5, 6, 7)
	wide = append(wide, healthy[1:]...)
	f.Add(wide)
	// The default-size ring, attached from the start.
	f.Add(append([]byte{0xFE, 5}, healthy[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ringCap := 2 + int(data[0])
		if data[0] == 0xFF {
			ringCap = 4096
		}
		z := &fuzzInput{b: data[1:]}
		arena := NewArena()
		fl := NewFlowIn(Config{RingCap: ringCap}, trace.DefaultTau, arena)
		var all []trace.Record
		var prev trace.Record
		var fed uint64
		attached := false
		ringStart := func() uint64 { return uint64(max(len(all)-ringCap, 0)) }
		handBack := func(how string, r *trace.Record) {
			t.Helper()
			if !reflect.DeepEqual(*r, all[fed]) {
				t.Fatalf("%s record %d = %+v, want %+v", how, fed, *r, all[fed])
			}
			fed++
		}
		for z.more() {
			switch op := z.byte(); op % 8 {
			case 5:
				trunc := fed < ringStart()
				if trunc {
					fed = ringStart()
				}
				if got := fl.Attach(); got != trunc {
					t.Fatalf("Attach at fed %d, ring start %d: truncated %v, want %v", fed, ringStart(), got, trunc)
				}
				attached = true
			case 6:
				if attached {
					fl.ReplayUnfed(func(r *trace.Record) { handBack("replayed", r) })
					if fed != uint64(len(all)) {
						t.Fatalf("replay stopped at %d of %d", fed, len(all))
					}
				}
			case 7:
				fl.Release()
				fl = NewFlowIn(Config{RingCap: ringCap}, trace.DefaultTau, arena)
				all, fed, attached = all[:0], 0, false
			default:
				r := z.record(&prev)
				prev = r
				wantSpill := attached && len(all) >= ringCap && fed == ringStart()
				_, spill, spilled := fl.Observe(&r)
				if spilled != wantSpill {
					t.Fatalf("record %d: spilled %v, want %v", len(all), spilled, wantSpill)
				}
				if spilled {
					handBack("spilled", &spill)
				}
				all = append(all, r)
				checkChunks(t, fl)
			}
			if fl.Total() != uint64(len(all)) || fl.ringStart != ringStart() || fl.fed != fed {
				t.Fatalf("total %d, ring start %d, fed %d; want %d, %d, %d",
					fl.Total(), fl.ringStart, fl.fed, len(all), ringStart(), fed)
			}
		}
		if attached {
			fl.ReplayUnfed(func(r *trace.Record) { handBack("replayed", r) })
		}
		fl.Release()
	})
}
