package trace

import (
	"fmt"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
)

// Dir distinguishes the two directions as seen from the server.
type Dir int

// Directions of travel relative to the server.
const (
	DirOut Dir = iota // server → client
	DirIn             // client → server
)

func (d Dir) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// Segment is the unit exchanged between the endpoints. Sequence
// numbers are 32-bit wire values starting at each direction's ISN
// and wrap modulo 2^32; the SYN and FIN each consume one sequence
// number, as in real TCP.
type Segment struct {
	Flags packet.TCPFlags
	// Seq is the first stream byte carried (sender's direction).
	Seq uint32
	// Ack is the next expected byte of the opposite direction
	// (valid when FlagACK set).
	Ack uint32
	// Len is the payload length in bytes (0 for pure ACKs).
	Len int
	// Wnd is the advertised receive window in bytes.
	Wnd int
	// SACK carries selective acknowledgment blocks inline (a DSACK is
	// signalled by a first block at or below Ack). Inline storage
	// makes Segment a plain value: copying a record never allocates
	// and never aliases another record's blocks.
	SACK packet.SACKList
	// TSVal is the sender's clock at transmit time and TSEcr the
	// echoed peer timestamp (RFC 7323), both on the record clock;
	// the pcap codec converts to and from millisecond ticks. A zero
	// TSEcr means "nothing to echo".
	TSVal sim.Time
	TSEcr sim.Time
}

// End reports Seq + Len (+1 for SYN/FIN).
func (s *Segment) End() uint32 {
	e := s.Seq + uint32(s.Len)
	if s.Flags.Has(packet.FlagSYN) || s.Flags.Has(packet.FlagFIN) {
		e++
	}
	return e
}

func (s *Segment) String() string {
	return fmt.Sprintf("[%s] seq=%d len=%d ack=%d wnd=%d sack=%v",
		s.Flags, s.Seq, s.Len, s.Ack, s.Wnd, s.SACK)
}

// CongState is the Linux congestion-avoidance machine state
// (tcp_ca_state).
type CongState int

// The four states of Figure 4.
const (
	StateOpen CongState = iota
	StateDisorder
	StateRecovery
	StateLoss
)

func (s CongState) String() string {
	switch s {
	case StateOpen:
		return "Open"
	case StateDisorder:
		return "Disorder"
	case StateRecovery:
		return "Recovery"
	case StateLoss:
		return "Loss"
	default:
		return fmt.Sprintf("CongState(%d)", int(s))
	}
}
