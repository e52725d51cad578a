package tcpsim

import (
	"tcpstall/internal/netem"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// NewLinkedConn builds a connection over a netem path pair (down:
// server→client, up: client→server), wiring delivery callbacks in
// both directions.
func NewLinkedConn(s *sim.Simulator, cfg ConnConfig, down, up *netem.Path, sink TraceSink) *Conn {
	c := NewConn(s, cfg, PathPair{
		Down: func(seg *trace.Segment, size int) { down.Send(seg, size) },
		Up:   func(seg *trace.Segment, size int) { up.Send(seg, size) },
	}, sink)
	down.Deliver = c.ClientDeliver
	up.Deliver = c.ServerDeliver
	return c
}
