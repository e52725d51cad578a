package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripMicroseconds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1419244800, 123456000).UTC() // µs-representable
	pkts := []Packet{
		{Timestamp: t0, Data: []byte{1, 2, 3, 4}},
		{Timestamp: t0.Add(time.Millisecond), Data: []byte{5}},
		{Timestamp: t0.Add(time.Second), Data: bytes.Repeat([]byte{0xaa}, 1500)},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().LinkType != LinkTypeEthernet {
		t.Errorf("link type = %v", r.Header().LinkType)
	}
	if r.Header().Nanosecond {
		t.Error("µs file claims ns resolution")
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i, p := range pkts {
		if !got[i].Timestamp.Equal(p.Timestamp) {
			t.Errorf("pkt %d ts = %v, want %v", i, got[i].Timestamp, p.Timestamp)
		}
		if !bytes.Equal(got[i].Data, p.Data) {
			t.Errorf("pkt %d data mismatch", i)
		}
		if got[i].OrigLen != len(p.Data) {
			t.Errorf("pkt %d origlen = %d", i, got[i].OrigLen)
		}
	}
}

func TestRoundTripNanoseconds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterHeader(&buf, Header{LinkType: LinkTypeRaw, Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1419244800, 987654321).UTC()
	if err := w.WritePacket(Packet{Timestamp: ts, Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Header().Nanosecond {
		t.Fatal("ns flag lost")
	}
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Timestamp.Equal(ts) {
		t.Errorf("ts = %v, want %v (full ns preserved)", p.Timestamp, ts)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian µs capture with one 3-byte record.
	var buf bytes.Buffer
	var fh [24]byte
	binary.BigEndian.PutUint32(fh[0:4], MagicMicroseconds)
	binary.BigEndian.PutUint16(fh[4:6], 2)
	binary.BigEndian.PutUint16(fh[6:8], 4)
	binary.BigEndian.PutUint32(fh[16:20], 65535)
	binary.BigEndian.PutUint32(fh[20:24], uint32(LinkTypeEthernet))
	buf.Write(fh[:])
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:4], 1000)
	binary.BigEndian.PutUint32(rh[4:8], 500000)
	binary.BigEndian.PutUint32(rh[8:12], 3)
	binary.BigEndian.PutUint32(rh[12:16], 60)
	buf.Write(rh[:])
	buf.Write([]byte{0xa, 0xb, 0xc})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1000, 500000000).UTC()
	if !p.Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", p.Timestamp, want)
	}
	if p.OrigLen != 60 || len(p.Data) != 3 {
		t.Errorf("lens = %d/%d", len(p.Data), p.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewReader(make([]byte, 24))
	if _, err := NewReader(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedFileHeader(t *testing.T) {
	buf := bytes.NewReader(make([]byte, 10))
	if _, err := NewReader(buf); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	w.WritePacket(Packet{Timestamp: time.Unix(0, 0), Data: []byte{1, 2, 3, 4, 5}})
	full := buf.Bytes()

	// Cut mid-record-data.
	r, _ := NewReader(bytes.NewReader(full[:len(full)-2]))
	if _, err := r.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-data: err = %v, want ErrTruncated", err)
	}
	// Cut mid-record-header.
	r, _ = NewReader(bytes.NewReader(full[:24+8]))
	if _, err := r.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-header: err = %v, want ErrTruncated", err)
	}
}

// TestHostileRecordLength pins that a record header claiming
// MaxRecordLen over a capture that ends 10 bytes later fails as
// truncated without allocating anything near the claimed length.
func TestHostileRecordLength(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriterHeader(&buf, Header{LinkType: LinkTypeEthernet, Snaplen: MaxRecordLen}); err != nil {
		t.Fatal(err)
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:12], MaxRecordLen)
	binary.LittleEndian.PutUint32(rec[12:16], MaxRecordLen)
	buf.Write(rec[:])
	buf.Write(make([]byte, 10))
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.ReadPacket()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a 10-byte record claiming %d bytes allocated %d bytes, want < 1 MiB", MaxRecordLen, n)
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterHeader(&buf, Header{LinkType: LinkTypeEthernet, Snaplen: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 100)
	if err := w.WritePacket(Packet{Timestamp: time.Unix(1, 0), Data: data}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 8 {
		t.Errorf("data len = %d, want snaplen 8", len(p.Data))
	}
	if p.OrigLen != 100 {
		t.Errorf("origlen = %d, want 100", p.OrigLen)
	}
}

func TestRecordExceedingSnaplenRejected(t *testing.T) {
	var buf bytes.Buffer
	var fh [24]byte
	binary.LittleEndian.PutUint32(fh[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint32(fh[16:20], 4) // snaplen 4
	buf.Write(fh[:])
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[8:12], 100) // incl_len 100 > snaplen
	buf.Write(rh[:])
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrSnaplen) {
		t.Errorf("err = %v, want ErrSnaplen", err)
	}
}

// ReadPacket reuses one record buffer; ReadAll must hand back packets
// whose Data neither alias that buffer nor each other.
func TestReadAllDoesNotAlias(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	in := [][]byte{{1, 1, 1, 1}, {2, 2}, {3, 3, 3}}
	for i, d := range in {
		if err := w.WritePacket(Packet{Timestamp: time.Unix(int64(i), 0), Data: d}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil || len(got) != len(in) {
		t.Fatalf("ReadAll = %d pkts, %v", len(got), err)
	}
	for i := range got {
		got[i].Data[0] = 0xee
	}
	for i := range got {
		want := append([]byte{0xee}, in[i][1:]...)
		if !bytes.Equal(got[i].Data, want) {
			t.Errorf("pkt %d data = %v, want %v (shared backing array?)", i, got[i].Data, want)
		}
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, LinkTypeEthernet); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil || len(pkts) != 0 {
		t.Errorf("ReadAll = %d pkts, %v", len(pkts), err)
	}
}

// Property: any sequence of packets round-trips byte-identically in
// data, original length, and (µs-truncated) timestamps.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw [][]byte, secs []uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriterHeader(&buf, Header{LinkType: LinkTypeEthernet, Nanosecond: true})
		if err != nil {
			return false
		}
		n := len(raw)
		if len(secs) < n {
			n = len(secs)
		}
		in := make([]Packet, 0, n)
		for i := 0; i < n; i++ {
			p := Packet{
				Timestamp: time.Unix(int64(secs[i]), int64(i%1e9)).UTC(),
				Data:      raw[i],
			}
			if err := w.WritePacket(p); err != nil {
				return false
			}
			in = append(in, p)
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out, err := r.ReadAll()
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !bytes.Equal(out[i].Data, in[i].Data) {
				return false
			}
			if !out[i].Timestamp.Equal(in[i].Timestamp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
