package triage

import (
	"encoding/binary"

	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// The ring of recent raw records is delta-encoded into a chain of
// fixed-size byte chunks. A record costs one header byte, zigzag
// varints of the fields that changed since the previous record of its
// direction, and a varint of the time since the previous record: about
// 6 bytes on a healthy flow. The encoding is lossless: every field
// keeps its full width.
//
// Header byte:
//
//	bit 0    direction state: 0 for DirOut, 1 for anything else
//	bit 1    an extension byte follows
//	bit 2    Seq differs from the previous Seq + Len
//	bit 3    Len differs from the previous Len
//	bit 4-7  Ack, Wnd, TSVal, TSEcr differ from the previous value
//
// Extension byte: bit 0, a flags byte follows (the flags changed);
// bit 1, a varint of the Dir follows (neither DirOut nor DirIn); bits
// 2-4, the number of SACK blocks. The body follows in that order: flags,
// Dir, the time change, then Seq, Len, Ack, Wnd, TSVal and TSEcr where
// present, then each SACK block as its left edge against Ack and its
// right edge against its left. Len is stored whole; every other field
// as its change, so values wrap exactly as they were observed.
//
// Each chunk is self-contained: its first record is encoded against the
// zero state. Dropping the oldest records therefore frees whole chunks,
// and a chunk decodes without anything before it.
const (
	hdrIn = 1 << iota
	hdrExt
	hdrSeq
	hdrLen
	hdrAck
	hdrWnd
	hdrTSVal
	hdrTSEcr
)

const (
	extFlags     = 1 << 0
	extDir       = 1 << 1
	extSACKShift = 2
)

// chunkBytes is the ring's unit of storage: small enough that a short
// flow wastes little of its last chunk, one Go size class so a chunk
// wastes no allocator slack.
const chunkBytes = 256

// chunk is one fixed run of encoded records. next, the only pointer,
// comes first so the collector scans one word of a chunk; the payload
// is never scanned.
type chunk struct {
	next *chunk
	recs uint8 // records encoded in b
	used uint8 // bytes of b in use
	b    [chunkBytes - 10]byte
}

// reset clears a chunk for its next owner, so no flow history leaks
// into it, and links it in front of next.
func (c *chunk) reset(next *chunk) { *c = chunk{next: next} }

// dirState is what a record of one direction is encoded against: the
// previous record of that direction.
type dirState struct {
	seq, ack     uint32
	len, wnd     int
	tsVal, tsEcr sim.Time
	flags        packet.TCPFlags
}

// codec is the state an encoded record depends on. The zero value is
// the state at a chunk's start.
type codec struct {
	t   sim.Time
	dir [2]dirState
}

// dirIndex maps a direction to its state: DirOut to 0, anything else
// to 1.
func dirIndex(d trace.Dir) int {
	if d == trace.DirOut {
		return 0
	}
	return 1
}

// sink is the room an encoded record is written into. Bytes past its
// end are counted but not written, so a length over len(sink) says the
// record did not fit.
type sink []byte

// put writes v at n and returns the next offset.
//
// tapo:hotpath
func (b sink) put(n int, v byte) int {
	if uint(n) < uint(len(b)) {
		b[n] = v
	}
	return n + 1
}

// uvarint writes v as a varint at n and returns the next offset.
//
// tapo:hotpath
func (b sink) uvarint(n int, v uint64) int {
	for v >= 0x80 {
		n = b.put(n, byte(v)|0x80)
		v >>= 7
	}
	return b.put(n, byte(v))
}

// varint writes v as a signed varint (zigzag, as encoding/binary's
// PutVarint writes it) at n and returns the next offset.
//
// tapo:hotpath
func (b sink) varint(n int, v int64) int { return b.uvarint(n, uint64(v<<1)^uint64(v>>63)) }

// encode writes r, encoded against c, into b, advances c past it and
// returns the record's length. When the record does not fit, the
// caller starts a chunk and encodes it again against the zero state,
// so c need not survive a failed write.
//
// tapo:hotpath
func (c *codec) encode(b sink, r *trace.Record) int {
	p := &c.dir[dirIndex(r.Dir)]
	s := &r.Seg
	var hdr, ext byte
	if r.Dir != trace.DirOut {
		hdr |= hdrIn
		if r.Dir != trace.DirIn {
			ext |= extDir
		}
	}
	if s.Flags != p.flags {
		ext |= extFlags
	}
	ext |= byte(s.SACK.Len()) << extSACKShift
	n := 1 // the header byte goes in last, once its bits are known
	if ext != 0 {
		hdr |= hdrExt
		n = b.put(n, ext)
		if ext&extFlags != 0 {
			n = b.put(n, byte(s.Flags))
		}
		if ext&extDir != 0 {
			n = b.varint(n, int64(r.Dir))
		}
	}
	n = b.varint(n, int64(r.T-c.t))
	if d := seqspace.Diff(s.Seq, p.seq+uint32(p.len)); d != 0 {
		hdr |= hdrSeq
		n = b.varint(n, int64(d))
	}
	if s.Len != p.len {
		hdr |= hdrLen
		n = b.varint(n, int64(s.Len))
	}
	if d := seqspace.Diff(s.Ack, p.ack); d != 0 {
		hdr |= hdrAck
		n = b.varint(n, int64(d))
	}
	if d := s.Wnd - p.wnd; d != 0 {
		hdr |= hdrWnd
		n = b.varint(n, int64(d))
	}
	if d := s.TSVal - p.tsVal; d != 0 {
		hdr |= hdrTSVal
		n = b.varint(n, int64(d))
	}
	if d := s.TSEcr - p.tsEcr; d != 0 {
		hdr |= hdrTSEcr
		n = b.varint(n, int64(d))
	}
	for i := range int(ext >> extSACKShift) {
		blk := s.SACK.At(i)
		n = b.varint(n, int64(seqspace.Diff(blk.Left, s.Ack)))
		n = b.uvarint(n, uint64(uint32(seqspace.Diff(blk.Right, blk.Left))))
	}
	b.put(0, hdr)
	c.t = r.T
	p.seq, p.ack = s.Seq, s.Ack
	p.len, p.wnd = s.Len, s.Wnd
	p.tsVal, p.tsEcr = s.TSVal, s.TSEcr
	p.flags = s.Flags
	return n
}

// update makes r, just decoded, the previous record of its direction.
//
// tapo:hotpath
func (c *codec) update(r *trace.Record) {
	c.t = r.T
	p := &c.dir[dirIndex(r.Dir)]
	p.seq, p.ack = r.Seg.Seq, r.Seg.Ack
	p.len, p.wnd = r.Seg.Len, r.Seg.Wnd
	p.tsVal, p.tsEcr = r.Seg.TSVal, r.Seg.TSEcr
	p.flags = r.Seg.Flags
}

// decode reads the record at the start of src, encoded against c,
// advances c past it, and returns the record and the bytes it took.
//
// tapo:hotpath
func (c *codec) decode(src []byte) (r trace.Record, n int) {
	in := byteReader{b: src}
	hdr := in.byte()
	var ext byte
	if hdr&hdrExt != 0 {
		ext = in.byte()
	}
	p := &c.dir[hdr&hdrIn]
	r.Dir = trace.Dir(hdr & hdrIn)
	s := &r.Seg
	s.Flags = p.flags
	if ext&extFlags != 0 {
		s.Flags = packet.TCPFlags(in.byte())
	}
	if ext&extDir != 0 {
		r.Dir = trace.Dir(in.varint())
	}
	r.T = c.t + sim.Time(in.varint())
	s.Seq = p.seq + uint32(p.len)
	if hdr&hdrSeq != 0 {
		s.Seq += uint32(in.varint())
	}
	s.Len = p.len
	if hdr&hdrLen != 0 {
		s.Len = int(in.varint())
	}
	s.Ack = p.ack
	if hdr&hdrAck != 0 {
		s.Ack += uint32(in.varint())
	}
	s.Wnd = p.wnd
	if hdr&hdrWnd != 0 {
		s.Wnd += int(in.varint())
	}
	s.TSVal = p.tsVal
	if hdr&hdrTSVal != 0 {
		s.TSVal += sim.Time(in.varint())
	}
	s.TSEcr = p.tsEcr
	if hdr&hdrTSEcr != 0 {
		s.TSEcr += sim.Time(in.varint())
	}
	for k := int(ext >> extSACKShift); k > 0; k-- {
		left := s.Ack + uint32(in.varint())
		s.SACK.Append(packet.SACKBlock{Left: left, Right: left + uint32(in.uvarint())})
	}
	c.update(&r)
	return r, in.n
}

// byteReader reads encoded fields front to back.
type byteReader struct {
	b []byte
	n int
}

// tapo:hotpath
func (in *byteReader) byte() byte {
	v := in.b[in.n]
	in.n++
	return v
}

// tapo:hotpath
func (in *byteReader) varint() int64 {
	v, k := binary.Varint(in.b[in.n:])
	in.n += k
	return v
}

// tapo:hotpath
func (in *byteReader) uvarint() uint64 {
	v, k := binary.Uvarint(in.b[in.n:])
	in.n += k
	return v
}

// cursor is a decode position in the ring: the next record to decode
// is record k of chunk c, at byte off, against state st. rec is the
// record ReplayUnfed decodes into and lends to its callback, so a
// replay allocates nothing.
type cursor struct {
	c   *chunk
	off int
	k   int
	st  codec
	rec trace.Record
}

// at moves the cursor to the start of chunk c.
//
// tapo:hotpath
func (cu *cursor) at(c *chunk) { *cu = cursor{c: c} }

// append encodes r at the ring's tail, starting a chunk when the tail
// has no room for it. A new chunk is the flow's spare when it has one,
// so a ring at capacity, which frees a chunk for each one it fills,
// allocates nothing.
//
// tapo:hotpath
func (f *Flow) append(r *trace.Record) {
	t := f.tail
	n := 0
	if t != nil {
		n = f.enc.encode(t.b[t.used:], r)
	}
	if t == nil || n > len(t.b)-int(t.used) {
		f.addChunk()
		f.enc = codec{}
		t = f.tail
		n = f.enc.encode(t.b[:], r)
	}
	t.used += uint8(n)
	t.recs++
}

// addChunk links an empty chunk in as the ring's tail.
func (f *Flow) addChunk() {
	c := f.spare
	f.spare = nil
	if c == nil {
		c = f.arena.get()
	}
	if f.tail == nil {
		f.front, f.frontFirst = c, f.total
	} else {
		f.tail.next = c
	}
	f.tail = c
}

// dropOldest forgets the oldest retained record. When that empties the
// front chunk, the chunk is unlinked (the cursor, if it waits at the
// chunk's end, moves on to the next) and kept as the spare or handed
// to the arena.
//
// tapo:hotpath
func (f *Flow) dropOldest() {
	f.ringStart++
	c := f.front
	if f.ringStart-f.frontFirst < uint64(c.recs) {
		return
	}
	f.front, f.frontFirst = c.next, f.ringStart
	if f.cur != nil && f.cur.c == c {
		f.cur.at(f.front)
	}
	if f.spare == nil {
		c.reset(nil)
		f.spare = c
	} else {
		f.arena.put(c)
	}
}

// next decodes the record at the cursor and moves past it. The caller
// guarantees the flow is attached and a record is there: fed < total.
//
// tapo:hotpath
func (f *Flow) next() trace.Record {
	cu := f.cur
	if cu.c == nil {
		cu.at(f.front)
	}
	if cu.k == int(cu.c.recs) {
		cu.at(cu.c.next)
	}
	r, n := cu.st.decode(cu.c.b[cu.off:cu.c.used])
	cu.off += n
	cu.k++
	return r
}

// seek puts the cursor at record fed, decoding forward from the front
// chunk's start. The first seek makes the cursor, so a flow that is
// never attached does not carry one.
func (f *Flow) seek() {
	if f.cur == nil {
		f.cur = new(cursor)
	}
	*f.cur = cursor{}
	for i := f.frontFirst; i < f.fed; i++ {
		f.next()
	}
}
