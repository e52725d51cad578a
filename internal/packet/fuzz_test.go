package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzParseTCP checks the TCP header decoder never panics and, when
// it accepts input, reports a payload that is a suffix of the input
// past a sane header length.
func FuzzParseTCP(f *testing.F) {
	// Minimal header, no options.
	f.Add([]byte{
		0x30, 0x39, 0x00, 0x50, // ports 12345 -> 80
		0x00, 0x00, 0x00, 0x01, // seq
		0x00, 0x00, 0x00, 0x00, // ack
		0x50, 0x02, 0xff, 0xff, // data offset 5, SYN, window
		0x00, 0x00, 0x00, 0x00, // checksum, urgent
	})
	// Header with MSS + SACK-permitted + timestamps options and payload.
	var tcp TCPHeader
	tcp.SrcPort, tcp.DstPort = 443, 50000
	tcp.Flags = FlagACK
	tcp.Options.HasMSS = true
	tcp.Options.MSS = 1460
	tcp.Options.SACKPermitted = true
	tcp.Options.HasTimestamps = true
	tcp.Options.TSVal, tcp.Options.TSEcr = 100, 200
	payload := []byte("payload")
	ctx := V4Context([4]byte{10, 0, 0, 1}, [4]byte{100, 64, 0, 1}, tcp.HeaderLen()+len(payload))
	f.Add(tcp.AppendTo(nil, payload, ctx))
	// Truncated and junk variants.
	f.Add([]byte{0x50})
	f.Add(bytes.Repeat([]byte{0xff}, 60))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h TCPHeader
		payload, err := h.DecodeFromBytes(data)
		if err != nil {
			return
		}
		// The wire data offset governs where the payload starts;
		// HeaderLen() re-encodes options and may normalize padding.
		dataOff := int(data[12]>>4) * 4
		if dataOff < 20 || dataOff > len(data) {
			t.Fatalf("accepted data offset %d for %d input bytes", dataOff, len(data))
		}
		if !bytes.Equal(payload, data[dataOff:]) {
			t.Fatalf("payload is not the post-header suffix")
		}
	})
}

// FuzzParseIPv4 checks the IPv4 decoder never panics and only accepts
// headers that fit the input.
func FuzzParseIPv4(f *testing.F) {
	var ip IPv4
	ip.Src = [4]byte{10, 0, 0, 1}
	ip.Dst = [4]byte{100, 64, 0, 1}
	ip.Protocol = IPProtoTCP
	ip.TTL = 64
	f.Add(ip.AppendTo(nil, 20))
	f.Add([]byte{0x45})
	f.Add(bytes.Repeat([]byte{0x46, 0x00}, 15))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h IPv4
		if _, err := h.DecodeFromBytes(data); err != nil {
			return
		}
		if hl := h.HeaderLen(); hl < 20 || hl > len(data) {
			t.Fatalf("accepted header length %d for %d input bytes", hl, len(data))
		}
	})
}

// FuzzDecodeFrame checks the full Ethernet-to-TCP frame decoder on
// arbitrary bytes, and that DecodeIP on a bare IP packet agrees with
// Decode on the same packet behind an Ethernet header whose EtherType
// matches its version nibble.
func FuzzDecodeFrame(f *testing.F) {
	var eth Ethernet
	var ip IPv4
	ip.TTL = 64
	tcp := TCPHeader{SrcPort: 80, DstPort: 12345, Flags: FlagACK}
	frame4 := EncodeTCPv4(&eth, &ip, &tcp, []byte("hello"))
	f.Add(frame4)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 14))
	// Bare IP packets, for the DecodeIP leg.
	f.Add(frame4[EthernetHeaderLen:])
	var ip6 IPv6
	ip6.HopLimit = 64
	bare6 := EncodeTCPv6(&eth, &ip6, &tcp, []byte("hello"))[EthernetHeaderLen:]
	f.Add(bare6)
	// IPv6 payload length 0: a TSO or BIG TCP segment captured on the
	// sender.
	tso6 := bytes.Clone(bare6)
	tso6[4], tso6[5] = 0, 0
	f.Add(tso6)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		_ = fr.Decode(data) // must not panic

		var raw Frame
		rawErr := raw.DecodeIP(data) // must not panic
		var et EtherType
		switch {
		case len(data) > 0 && data[0]>>4 == 4:
			et = EtherTypeIPv4
		case len(data) > 0 && data[0]>>4 == 6:
			et = EtherTypeIPv6
		default:
			return
		}
		hdr := Ethernet{Type: et}
		var framed Frame
		ethErr := framed.Decode(append(hdr.AppendTo(nil), data...))
		if fmt.Sprint(rawErr) != fmt.Sprint(ethErr) {
			t.Fatalf("DecodeIP err = %v, Decode err = %v", rawErr, ethErr)
		}
		if raw.HasTCP != framed.HasTCP || raw.TCP != framed.TCP || !bytes.Equal(raw.Payload, framed.Payload) {
			t.Fatalf("DecodeIP: HasTCP=%v TCP=%+v payload=%x; Decode: HasTCP=%v TCP=%+v payload=%x",
				raw.HasTCP, raw.TCP, raw.Payload, framed.HasTCP, framed.TCP, framed.Payload)
		}
	})
}
