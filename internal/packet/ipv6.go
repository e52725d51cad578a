package packet

import (
	"encoding/binary"
	"fmt"
)

// IPv6HeaderLen is the length of the fixed IPv6 header.
const IPv6HeaderLen = 40

// IPv6 is the fixed IPv6 header. Extension headers are not modeled;
// NextHeader must identify the transport directly for Frame parsing.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	PayloadLen   uint16
	NextHeader   IPProto
	HopLimit     uint8
	Src          [16]byte
	Dst          [16]byte
}

// DecodeFromBytes parses the header and returns the payload
// (truncated to PayloadLen when the buffer carries trailing padding).
// A PayloadLen of 0 takes the payload from the captured bytes, as
// IPv4 does for total length 0: a TSO or BIG TCP segment captured on
// the sender carries no length of its own.
func (ip *IPv6) DecodeFromBytes(data []byte) (payload []byte, err error) {
	if len(data) < IPv6HeaderLen {
		return nil, fmt.Errorf("ipv6: %w (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 6 {
		return nil, fmt.Errorf("ipv6: %w (version %d)", ErrBadVersion, v)
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	ip.TrafficClass = uint8(vtf >> 20)
	ip.FlowLabel = vtf & 0xfffff
	ip.PayloadLen = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = IPProto(data[6])
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	end := IPv6HeaderLen + int(ip.PayloadLen)
	if ip.PayloadLen == 0 || end > len(data) {
		end = len(data)
	}
	return data[IPv6HeaderLen:end], nil
}

// AppendTo serializes the header onto b, computing PayloadLen from
// payloadLen. It returns the extended slice.
func (ip *IPv6) AppendTo(b []byte, payloadLen int) []byte {
	vtf := uint32(6)<<28 | uint32(ip.TrafficClass)<<20 | ip.FlowLabel&0xfffff
	b = binary.BigEndian.AppendUint32(b, vtf)
	b = binary.BigEndian.AppendUint16(b, uint16(payloadLen))
	b = append(b, byte(ip.NextHeader), ip.HopLimit)
	b = append(b, ip.Src[:]...)
	b = append(b, ip.Dst[:]...)
	return b
}
