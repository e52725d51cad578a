package flight

import (
	"encoding/binary"
	"math/bits"

	"tcpstall/internal/sim"
)

// The event ring is a byte buffer of delta-encoded events. One event
// is, in order:
//
//	header      one byte: the event's encoded length << 2 | idx class
//	Kind, Name  one byte each
//	Idx delta   zigzag varint from the previous event's Idx, present
//	            only in idx class 2; classes 0 and 1 are the deltas
//	            0 and 1, which is how the analyzer's Idx moves
//	T delta     zigzag varint from the previous event's T
//	A, B, C     zigzag varints
//
// Deltas wrap in two's complement, so every int64 round-trips. The
// length in the header lets the ring drop its oldest event, and a
// stall find its first event, without decoding the payloads. On the
// analyzer's events A, B and C are small offsets, counts and
// microseconds, so an event held averages about 11 bytes against 48
// for an Event.

// maxEventBytes bounds one encoded event: three bytes and five varints.
const maxEventBytes = 3 + 5*binary.MaxVarintLen64

// ringMinBytes is added to every buffer resize makes, so a flow's
// first few events share one allocation.
const ringMinBytes = 32

// cursor is the Idx and T an encoded event's deltas apply to: those
// of the event before it.
type cursor struct {
	idx int
	t   sim.Time
}

// ring is a Recorder's event ring. The held events are buf[start:],
// oldest first; the first of them decodes against base, and the next
// one pushed encodes against last. total counts every event pushed,
// so the ring has dropped total-held.
type ring struct {
	buf        []byte
	start      int
	held       int
	base, last cursor
	total      uint64
}

// push appends one event, first dropping the oldest when size events
// are held.
func (g *ring) push(size, idx int, t sim.Time, kind Kind, name Name, a, b, c int64) {
	if g.held == size {
		g.base, g.start = skipEvent(g.buf, g.start, g.base)
		g.held--
	}
	di, dt := idx-g.last.idx, t-g.last.t
	l := len(g.buf)
	if cap(g.buf)-l < maxEventBytes {
		// Near the end of the buffer: make room for this event's
		// exact length, which the bound on the buffer counts.
		n := 3 + varintLen(int64(dt)) + varintLen(a) + varintLen(b) + varintLen(c)
		if uint(di) > 1 {
			n += varintLen(int64(di))
		}
		if l+n > cap(g.buf) {
			g.makeRoom(l - g.start + n)
			l = len(g.buf)
		}
	}
	e := encBuf(g.buf[l:cap(g.buf)])
	h, i := byte(di), 3
	if uint(di) > 1 {
		h, i = 2, e.putVarint(i, int64(di))
	}
	i = e.putVarint(i, int64(dt))
	i = e.putVarint(i, a)
	i = e.putVarint(i, b)
	i = e.putVarint(i, c)
	e[0], e[1], e[2] = byte(i)<<2|h, byte(kind), byte(name)
	g.buf = g.buf[:l+i]
	g.held++
	g.total++
	g.last = cursor{idx, t}
	// Events smaller than the ones they replaced leave the buffer
	// oversized; hand back the excess once it passes the bound.
	if live := len(g.buf) - g.start; cap(g.buf) > 2*live+maxEventBytes {
		g.resize(live)
	}
}

// makeRoom makes the buffer hold need live bytes from its start. It
// slides the held events to the front when that frees at least a
// quarter of the buffer, and otherwise moves them into a buffer half
// as large again. Either way a quarter of the buffer is free after
// it, so the copying averages at most three bytes per byte pushed.
func (g *ring) makeRoom(need int) {
	if c := cap(g.buf); need <= c && g.start >= c/4 {
		g.buf = g.buf[:copy(g.buf, g.buf[g.start:])]
		g.start = 0
		return
	}
	g.resize(need)
}

// resize moves the held events into a fresh buffer with room for
// need bytes and half as many again.
func (g *ring) resize(need int) {
	g.buf = append(make([]byte, 0, need+need/2+ringMinBytes), g.buf[g.start:]...)
	g.start = 0
}

// events decodes the held events, oldest first.
func (g *ring) events() []Event {
	if g.held == 0 {
		return nil
	}
	return decodeEvents(g.buf[g.start:], g.base, g.held)
}

// suffix copies the held events from the first one attributed to
// record lo or later, with the cursor the copy decodes against; nil
// when there is none. Idx never decreases along the ring, so every
// later event is attributed to lo or later too.
func (g *ring) suffix(lo int) ([]byte, cursor) {
	at, off := g.base, g.start
	for off < len(g.buf) {
		next, n := skipEvent(g.buf, off, at)
		if next.idx >= lo {
			return append([]byte(nil), g.buf[off:]...), at
		}
		at, off = next, n
	}
	return nil, cursor{}
}

// drops is how many events the ring has dropped.
func (g *ring) drops() uint64 { return g.total - uint64(g.held) }

// encBuf is the space one event is encoded into.
type encBuf []byte

// putVarint writes x as a zigzag varint at e[i:] and returns the
// offset past it.
func (e encBuf) putVarint(i int, x int64) int {
	u := uint64(x<<1 ^ x>>63)
	for u >= 0x80 {
		e[i] = byte(u) | 0x80
		u >>= 7
		i++
	}
	e[i] = byte(u)
	return i + 1
}

// varintLen is the length of x as a zigzag varint.
func varintLen(x int64) int {
	return (bits.Len64(uint64(x<<1^x>>63)|1) + 6) / 7
}

// deltas applies the Idx and T deltas of the event at src[off:] to
// prev, its predecessor's, and returns the result with the offset of
// the event's A.
func deltas(src []byte, off int, prev cursor) (cursor, int) {
	h, p := src[off], off+3
	if h&3 < 2 {
		prev.idx += int(h & 3)
	} else {
		var d int64
		d, p = varintAt(src, p)
		prev.idx += int(d)
	}
	d, p := varintAt(src, p)
	prev.t += sim.Time(d)
	return prev, p
}

// skipEvent returns the Idx and T of the event at src[off:], whose
// predecessor's are prev, and the offset of the next event.
func skipEvent(src []byte, off int, prev cursor) (cursor, int) {
	at, _ := deltas(src, off, prev)
	return at, off + int(src[off]>>2)
}

// decodeEvent decodes the event at src[off:], whose predecessor's Idx
// and T are prev, and returns it with the offset of the next event.
func decodeEvent(src []byte, off int, prev cursor) (Event, int) {
	at, p := deltas(src, off, prev)
	e := Event{Idx: at.idx, T: at.t, Kind: Kind(src[off+1]), Name: Name(src[off+2])}
	e.A, p = varintAt(src, p)
	e.B, p = varintAt(src, p)
	e.C, _ = varintAt(src, p)
	return e, off + int(src[off]>>2)
}

// varintAt decodes the zigzag varint at src[off:] and returns it
// with the offset past it. It is binary.Varint without the overflow
// checks, which bytes push wrote never need.
func varintAt(src []byte, off int) (int64, int) {
	var u uint64
	for shift := 0; ; shift += 7 {
		b := src[off]
		off++
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int64(u>>1) ^ -int64(u&1), off
		}
	}
}

// decodeEvents decodes the count events of src, the first against at.
func decodeEvents(src []byte, at cursor, count int) []Event {
	out := make([]Event, count)
	for i, off := 0, 0; i < count; i++ {
		out[i], off = decodeEvent(src, off, at)
		at = cursor{out[i].Idx, out[i].T}
	}
	return out
}
