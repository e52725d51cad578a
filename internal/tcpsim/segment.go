// Package tcpsim models a server-side TCP connection at segment
// granularity: a full-featured data sender (congestion control,
// RFC 6298 retransmission timer, SACK scoreboard, the Linux 4-state
// congestion state machine) facing a client receiver (out-of-order
// reassembly, delayed ACKs, SACK/DSACK generation, finite receive
// buffer with zero-window behaviour) over a pair of netem paths.
//
// It is the stand-in for the production Linux 2.6.32 stack the paper
// measured: every stall class the paper's TAPO classifier knows —
// data-unavailable, resource-constraint, client-idle, zero-window,
// packet-delay and the six timeout-retransmission sub-causes — arises
// organically from these mechanisms under the right workload.
//
// The endpoints exchange trace.Segment values, the record format the
// analysis reads, so a simulated capture needs no conversion. Each
// direction's ISN is 0 by default and random when ConnConfig.ISNRng
// is set.
package tcpsim

import (
	"tcpstall/internal/packet"
	"tcpstall/internal/trace"
)

// wireSize estimates a segment's on-the-wire frame size for bandwidth
// accounting: Ethernet + IPv4 + TCP (with SACK options) + payload.
func wireSize(s *trace.Segment) int {
	n := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen + s.Len
	if blocks := s.SACK.Len(); blocks > 0 {
		n += 4 + 8*blocks // kind+len+2 NOPs alignment, blocks
	}
	return n
}
