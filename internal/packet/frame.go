package packet

import "fmt"

// Frame is a fully parsed Ethernet/IP/TCP stack. After a successful
// Decode or DecodeIP, exactly one of IP4/IP6 is valid (see IsIPv6)
// and TCP and Payload are set when the transport is TCP.
type Frame struct {
	Eth     Ethernet
	IP4     IPv4
	IP6     IPv6
	IsIPv6  bool
	HasTCP  bool
	TCP     TCPHeader
	Payload []byte
}

// Decode parses an Ethernet frame down to the TCP payload. Non-IP and
// non-TCP frames decode as far as possible with HasTCP=false; they
// are not an error unless malformed. The EtherType selects the IP
// version, so an IP header of the other version is an error.
func (f *Frame) Decode(data []byte) error {
	f.HasTCP, f.Payload = false, nil
	rest, err := f.Eth.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	switch f.Eth.Type {
	case EtherTypeIPv4:
		return f.decodeIP(rest, 4)
	case EtherTypeIPv6:
		return f.decodeIP(rest, 6)
	}
	return fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, uint16(f.Eth.Type))
}

// DecodeIP parses a bare IP packet, as a raw-IP capture holds it,
// down to the TCP payload. The version nibble selects IPv4 or IPv6;
// otherwise it behaves as Decode does after the Ethernet header, and
// leaves Eth untouched.
func (f *Frame) DecodeIP(data []byte) error {
	f.HasTCP, f.Payload = false, nil
	if len(data) == 0 {
		return fmt.Errorf("ip: %w (0 bytes)", ErrTruncated)
	}
	return f.decodeIP(data, data[0]>>4)
}

// decodeIP parses an IP packet of the given version and, when it
// carries TCP, the TCP header.
func (f *Frame) decodeIP(data []byte, version byte) (err error) {
	var proto IPProto
	switch version {
	case 4:
		f.IsIPv6 = false
		data, err = f.IP4.DecodeFromBytes(data)
		proto = f.IP4.Protocol
	case 6:
		f.IsIPv6 = true
		data, err = f.IP6.DecodeFromBytes(data)
		proto = f.IP6.NextHeader
	default:
		return fmt.Errorf("%w: IP version %d", ErrUnsupported, version)
	}
	if err != nil || proto != IPProtoTCP {
		return err
	}
	if f.Payload, err = f.TCP.DecodeFromBytes(data); err != nil {
		return err
	}
	f.HasTCP = true
	return nil
}

// EncodeTCPv4 serializes a complete Ethernet/IPv4/TCP frame with a
// correct IP header checksum and TCP checksum.
func EncodeTCPv4(eth *Ethernet, ip *IPv4, tcp *TCPHeader, payload []byte) []byte {
	segLen := tcp.HeaderLen() + len(payload)
	buf := make([]byte, 0, EthernetHeaderLen+ip.HeaderLen()+segLen)
	eth2 := *eth
	eth2.Type = EtherTypeIPv4
	ip2 := *ip
	ip2.Protocol = IPProtoTCP
	buf = eth2.AppendTo(buf)
	buf = ip2.AppendTo(buf, segLen)
	ctx := V4Context(ip2.Src, ip2.Dst, segLen)
	return tcp.AppendTo(buf, payload, ctx)
}

// EncodeTCPv6 serializes a complete Ethernet/IPv6/TCP frame with a
// correct TCP checksum.
func EncodeTCPv6(eth *Ethernet, ip *IPv6, tcp *TCPHeader, payload []byte) []byte {
	segLen := tcp.HeaderLen() + len(payload)
	buf := make([]byte, 0, EthernetHeaderLen+IPv6HeaderLen+segLen)
	eth2 := *eth
	eth2.Type = EtherTypeIPv6
	ip2 := *ip
	ip2.NextHeader = IPProtoTCP
	buf = eth2.AppendTo(buf)
	buf = ip2.AppendTo(buf, segLen)
	ctx := V6Context(ip2.Src, ip2.Dst, segLen)
	return tcp.AppendTo(buf, payload, ctx)
}
