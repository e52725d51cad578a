// Package pcap reads and writes the classic libpcap capture file
// format (the .pcap files produced by tcpdump -w). Both byte orders
// and both timestamp resolutions (microsecond 0xa1b2c3d4 and
// nanosecond 0xa1b23c4d magics) are supported.
//
// The package is the bridge between the simulator's trace capture and
// real-world tooling: synthetic traces written here open in
// tcpdump/tshark, and TAPO accepts real captures read here.
package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType identifies the capture's layer-2 framing.
type LinkType uint32

// Link types this toolkit uses.
const (
	LinkTypeNull     LinkType = 0
	LinkTypeEthernet LinkType = 1
	LinkTypeRaw      LinkType = 101 // raw IP
)

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("pcap: bad magic number")
	ErrTruncated = errors.New("pcap: truncated file")
	ErrSnaplen   = errors.New("pcap: record exceeds snap length")
)

// MaxRecordLen bounds a single record's captured length (64MB, far
// above any real link MTU). A corrupt or hostile length field would
// otherwise drive a multi-gigabyte allocation before the read fails.
const MaxRecordLen = 1 << 26

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
	versionMajor    = 2
	versionMinor    = 4
	// DefaultSnaplen is what tcpdump uses by default nowadays.
	DefaultSnaplen = 262144
)

// Packet is one captured record.
type Packet struct {
	// Timestamp is the capture instant as an absolute time.
	Timestamp time.Time
	// Data is the captured bytes (up to snaplen). In a Packet returned
	// by Reader.ReadPacket it is valid only until the next ReadPacket
	// call, which reuses the buffer; copy what must outlive it.
	Data []byte
	// OrigLen is the original wire length; ≥ len(Data).
	OrigLen int
}

// Header describes a capture file.
type Header struct {
	LinkType LinkType
	Snaplen  uint32
	// Nanosecond reports whether timestamps carry nanosecond
	// resolution.
	Nanosecond bool
}

// Writer emits a pcap stream.
type Writer struct {
	w   io.Writer
	hdr Header
	buf [recordHeaderLen]byte
}

// NewWriter writes a file header for the given link type with
// microsecond timestamps and the default snaplen.
func NewWriter(w io.Writer, link LinkType) (*Writer, error) {
	return NewWriterHeader(w, Header{LinkType: link, Snaplen: DefaultSnaplen})
}

// NewWriterHeader writes a file header with full control over snaplen
// and timestamp resolution.
func NewWriterHeader(w io.Writer, hdr Header) (*Writer, error) {
	if hdr.Snaplen == 0 {
		hdr.Snaplen = DefaultSnaplen
	}
	var fh [fileHeaderLen]byte
	magic := uint32(MagicMicroseconds)
	if hdr.Nanosecond {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(fh[0:4], magic)
	binary.LittleEndian.PutUint16(fh[4:6], versionMajor)
	binary.LittleEndian.PutUint16(fh[6:8], versionMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(fh[16:20], hdr.Snaplen)
	binary.LittleEndian.PutUint32(fh[20:24], uint32(hdr.LinkType))
	if _, err := w.Write(fh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: w, hdr: hdr}, nil
}

// WritePacket appends one record. Data longer than snaplen is
// truncated (with OrigLen preserving the full length).
func (w *Writer) WritePacket(p Packet) error {
	data := p.Data
	origLen := p.OrigLen
	if origLen < len(data) {
		origLen = len(data)
	}
	if uint32(len(data)) > w.hdr.Snaplen {
		data = data[:w.hdr.Snaplen]
	}
	sec := p.Timestamp.Unix()
	var sub int64
	if w.hdr.Nanosecond {
		sub = int64(p.Timestamp.Nanosecond())
	} else {
		sub = int64(p.Timestamp.Nanosecond()) / 1000
	}
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(w.buf[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(w.buf[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.buf[12:16], uint32(origLen))
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// Reader consumes a pcap stream.
type Reader struct {
	r     io.Reader
	hdr   Header
	order binary.ByteOrder
	buf   [recordHeaderLen]byte
	// data is the record buffer every ReadPacket reuses, grown to the
	// largest record seen.
	data []byte
}

// NewReader parses the file header and prepares to iterate records.
func NewReader(r io.Reader) (*Reader, error) {
	var fh [fileHeaderLen]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", errors.Join(ErrTruncated, err))
	}
	rd := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(fh[0:4])
	magicBE := binary.BigEndian.Uint32(fh[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		rd.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		rd.order, rd.hdr.Nanosecond = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		rd.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		rd.order, rd.hdr.Nanosecond = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	rd.hdr.Snaplen = rd.order.Uint32(fh[16:20])
	rd.hdr.LinkType = LinkType(rd.order.Uint32(fh[20:24]))
	return rd, nil
}

// Header reports the parsed file header.
func (r *Reader) Header() Header { return r.hdr }

// ReadPacket returns the next record, or io.EOF at a clean end of
// stream. The returned Data aliases the reader's record buffer and is
// valid only until the next ReadPacket call.
func (r *Reader) ReadPacket() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: reading record header: %w", errors.Join(ErrTruncated, err))
	}
	sec := r.order.Uint32(r.buf[0:4])
	sub := r.order.Uint32(r.buf[4:8])
	inclLen := r.order.Uint32(r.buf[8:12])
	origLen := r.order.Uint32(r.buf[12:16])
	if r.hdr.Snaplen != 0 && inclLen > r.hdr.Snaplen {
		return Packet{}, fmt.Errorf("%w: %d > %d", ErrSnaplen, inclLen, r.hdr.Snaplen)
	}
	if inclLen > MaxRecordLen {
		return Packet{}, fmt.Errorf("%w: record length %d", ErrSnaplen, inclLen)
	}
	if uint32(cap(r.data)) < inclLen {
		r.data = make([]byte, inclLen)
	}
	data := r.data[:inclLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: reading record data: %w", errors.Join(ErrTruncated, err))
	}
	nanos := int64(sub)
	if !r.hdr.Nanosecond {
		nanos *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), nanos).UTC(),
		Data:      data,
		OrigLen:   int(origLen),
	}, nil
}

// ReadAll drains the stream into a slice. Each packet's Data is its
// own copy.
func (r *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		p.Data = bytes.Clone(p.Data)
		pkts = append(pkts, p)
	}
}
