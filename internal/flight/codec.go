package flight

import (
	"encoding/binary"
	"math/bits"

	"tcpstall/internal/sim"
)

// A stall's evidence keeps its events as bytes, delta-encoded. One
// event is, in order:
//
//	header      one byte: the event's encoded length << 2 | idx class
//	Kind, Name  one byte each
//	Idx delta   varint from the previous event's Idx, present only
//	            in idx class 2; classes 0 and 1 are the deltas 0 and
//	            1, which is how the analyzer's Idx moves
//	T delta     varint from the previous event's T
//	A, B, C     varints
//
// Varints are encoding/binary's signed (zigzag) varints.
//
// The first event's deltas are from Idx 0 and T 0. Deltas wrap in
// two's complement, so every int64 round-trips. The length in the
// header lets Events count the events without decoding them. On the
// analyzer's events A, B and C are small offsets, counts and
// microseconds, so an event averages about 11 bytes against 48 for an
// Event.

// cursor is the Idx and T an encoded event's deltas apply to: those
// of the event before it.
type cursor struct {
	idx int
	t   sim.Time
}

// encodeEvents encodes the events of every slice in turn into a
// buffer of exactly their length; nil when there are none.
func encodeEvents(evs ...[]Event) []byte {
	n, at := 0, cursor{}
	for _, s := range evs {
		for i := range s {
			n += encodedLen(&s[i], at)
			at = cursor{s[i].Idx, s[i].T}
		}
	}
	if n == 0 {
		return nil
	}
	buf := make(encBuf, n)
	off, at := 0, cursor{}
	for _, s := range evs {
		for i := range s {
			off += buf[off:].put(&s[i], at)
			at = cursor{s[i].Idx, s[i].T}
		}
	}
	return buf
}

// encodedLen is the length of e encoded against prev.
func encodedLen(e *Event, prev cursor) int {
	n := 3 + varintLen(int64(e.T-prev.t)) + varintLen(e.A) + varintLen(e.B) + varintLen(e.C)
	if di := e.Idx - prev.idx; uint(di) > 1 {
		n += varintLen(int64(di))
	}
	return n
}

// encBuf is the space events are encoded into.
type encBuf []byte

// put encodes ev against prev at the start of the buffer, which has
// room for it, and returns its length.
func (e encBuf) put(ev *Event, prev cursor) int {
	di := ev.Idx - prev.idx
	h, i := byte(di), 3
	if uint(di) > 1 {
		h = 2
		i += binary.PutVarint(e[i:], int64(di))
	}
	i += binary.PutVarint(e[i:], int64(ev.T-prev.t))
	i += binary.PutVarint(e[i:], ev.A)
	i += binary.PutVarint(e[i:], ev.B)
	i += binary.PutVarint(e[i:], ev.C)
	e[0], e[1], e[2] = byte(i)<<2|h, byte(ev.Kind), byte(ev.Name)
	return i
}

// varintLen is the length of x as a varint.
func varintLen(x int64) int {
	return (bits.Len64(uint64(x<<1^x>>63)|1) + 6) / 7
}

// decodeEvent decodes the event at src[off:], whose predecessor's Idx
// and T are prev, and returns it with the offset of the next event.
func decodeEvent(src []byte, off int, prev cursor) (Event, int) {
	h, in := src[off], varints(src[off+3:])
	if h&3 < 2 {
		prev.idx += int(h & 3)
	} else {
		prev.idx += int(in.next())
	}
	e := Event{Idx: prev.idx, T: prev.t + sim.Time(in.next()), Kind: Kind(src[off+1]), Name: Name(src[off+2])}
	e.A, e.B, e.C = in.next(), in.next(), in.next()
	return e, off + int(h>>2)
}

// varints reads varints front to back.
type varints []byte

func (v *varints) next() int64 {
	x, n := binary.Varint(*v)
	*v = (*v)[n:]
	return x
}

// decodeEvents decodes src, which holds count events.
func decodeEvents(src []byte, count int) []Event {
	out := make([]Event, count)
	at := cursor{}
	for i, off := 0, 0; i < count; i++ {
		out[i], off = decodeEvent(src, off, at)
		at = cursor{out[i].Idx, out[i].T}
	}
	return out
}
