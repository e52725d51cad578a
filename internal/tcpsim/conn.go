package tcpsim

import (
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/seqspace"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// TraceSink observes the connection's packets from the server's
// vantage point, exactly as tcpdump on the front-end server would:
// outgoing segments at transmit time (before any network drop),
// incoming segments at delivery time.
type TraceSink interface {
	Record(t sim.Time, dir trace.Dir, seg trace.Segment)
}

// AppPause models a mid-transfer server application stall (the
// paper's "resource constraint" cause): after AfterBytes of the
// response have been handed to TCP, the next bytes arrive only
// Duration later.
type AppPause struct {
	AfterBytes int64
	Duration   time.Duration
}

// Request is one client request → server response exchange.
type Request struct {
	// IdleBefore is client think-time before issuing the request
	// (after the handshake, or after the previous response
	// completed). Produces the paper's "client idle" stalls.
	IdleBefore time.Duration
	// Size is the response length in bytes.
	Size int64
	// HeadDelay is the server-side delay before the first response
	// byte (back-end fetch): the paper's "data unavailable" stalls.
	HeadDelay time.Duration
	// Pauses inject resource-constraint stalls mid-response.
	Pauses []AppPause
}

// ConnConfig assembles a full connection.
type ConnConfig struct {
	Sender   SenderConfig
	Receiver ReceiverConfig
	// Requests drive the application exchange; at least one is
	// required.
	Requests []Request
	// RequestSize is the client request length in bytes (default
	// 300, a typical HTTP GET).
	RequestSize int
	// ClientRTO is the client's own retransmission timeout for SYNs
	// and requests (default 1s, doubling).
	ClientRTO time.Duration
	// Deadline aborts the connection after this much virtual time
	// (default 300s); aborted connections report Done=false.
	Deadline time.Duration
	// ClientISN and ServerISN set the initial sequence numbers
	// explicitly (default 0, the historical behaviour every golden
	// trace pins). ISNRng, when non-nil, overrides both with random
	// draws — the realistic case, exercising sequence wraparound for
	// ISNs near 2^32−1.
	ClientISN uint32
	ServerISN uint32
	ISNRng    *sim.RNG
	// Truth, when non-nil, receives privileged ground-truth events
	// (RTO firings, retransmissions, zero-window transitions, app
	// writes, request arrivals) for differential validation.
	Truth TruthSink
}

// ConnMetrics summarizes one connection for the evaluation harness.
type ConnMetrics struct {
	Start         sim.Time
	EstablishedAt sim.Time
	Done          bool
	DoneAt        sim.Time
	BytesServed   int64
	// RequestSentAt and RequestDoneAt (response fully acknowledged)
	// are per request; the paper's "flow latency" for short flows is
	// RequestDoneAt[last] − RequestSentAt[0].
	RequestSentAt []sim.Time
	RequestDoneAt []sim.Time
	Sender        SenderStats
	Receiver      ReceiverStats
}

// FlowLatency reports the paper's latency metric: first request
// initiation to last response byte acknowledged. Zero if incomplete.
func (m *ConnMetrics) FlowLatency() time.Duration {
	if !m.Done || len(m.RequestSentAt) == 0 {
		return 0
	}
	return m.RequestDoneAt[len(m.RequestDoneAt)-1].Sub(m.RequestSentAt[0])
}

// PathPair is the bidirectional link a connection runs over. Sending
// is performed through user-supplied functions so the connection
// composes with netem paths without importing them.
type PathPair struct {
	// Down carries server→client segments; Up the reverse. Both
	// take the segment and its wire size.
	Down func(seg *trace.Segment, size int)
	Up   func(seg *trace.Segment, size int)
}

// Conn is a simulated server↔client TCP connection.
type Conn struct {
	sm    *sim.Simulator
	cfg   ConnConfig
	paths PathPair
	sink  TraceSink

	snd *Sender
	rcv *Receiver

	// ISNs resolved at construction (wire values).
	cliISN uint32
	srvISN uint32

	// server receive state (client requests); srvRcvNxt is an
	// unwrapped stream offset via srvRcvU.
	srvRcvNxt uint64
	srvRcvU   seqspace.Unwrapper
	srvWnd    int

	// client send state; cliSndNxt is an unwrapped stream offset.
	cliSndNxt   uint64
	established bool
	synSent     bool
	cliTimer    *sim.Timer
	cliBackoff  int
	pendingReq  *trace.Segment // unacknowledged request (or SYN) to retransmit

	reqIdx      int      // next request to issue
	served      int      // requests handed to the server app
	deliveredSz int64    // bytes the client app consumed
	respEnd     []uint64 // unwrapped offsets of each response's end
	doneFired   bool

	truth TruthSink

	synackSentAt sim.Time
	rttSeeded    bool

	metrics ConnMetrics

	// OnDone fires when the connection completes or is aborted.
	OnDone func(m *ConnMetrics)
}

// NewConn builds a connection. sink may be nil.
func NewConn(s *sim.Simulator, cfg ConnConfig, paths PathPair, sink TraceSink) *Conn {
	if len(cfg.Requests) == 0 {
		panic("tcpsim: connection needs at least one request")
	}
	if cfg.RequestSize <= 0 {
		cfg.RequestSize = 300
	}
	if cfg.ClientRTO <= 0 {
		cfg.ClientRTO = time.Second
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 300 * time.Second
	}
	c := &Conn{
		sm:     s,
		cfg:    cfg,
		paths:  paths,
		sink:   sink,
		srvWnd: 65535,
		cliISN: cfg.ClientISN,
		srvISN: cfg.ServerISN,
		truth:  cfg.Truth,
	}
	if cfg.ISNRng != nil {
		c.cliISN = uint32(cfg.ISNRng.Int63())
		c.srvISN = uint32(cfg.ISNRng.Int63())
	}
	c.snd = NewSender(s, cfg.Sender, c.srvISN+1)
	c.rcv = NewReceiver(s, cfg.Receiver, c.srvISN+1)
	c.cliTimer = sim.NewTimer(s, c.onClientTimer)

	c.snd.Output = c.serverTransmit
	c.rcv.Output = c.clientTransmit
	c.rcv.OnDeliver = c.onClientDeliver
	c.snd.truth = cfg.Truth
	c.rcv.truth = cfg.Truth
	return c
}

// Sender exposes the server-side sender (for strategy installation
// and inspection).
func (c *Conn) Sender() *Sender { return c.snd }

// Receiver exposes the client-side receiver.
func (c *Conn) Receiver() *Receiver { return c.rcv }

// Metrics returns the connection metrics (final once OnDone fired).
func (c *Conn) Metrics() *ConnMetrics { return &c.metrics }

// Start initiates the client's SYN at the current virtual time.
func (c *Conn) Start() {
	c.metrics.Start = c.sm.Now()
	c.sendSYN()
	c.sm.Schedule(c.cfg.Deadline, c.abortIfUnfinished)
}

func (c *Conn) abortIfUnfinished() {
	if !c.doneFired {
		c.finish(false)
	}
}

func (c *Conn) finish(done bool) {
	if c.doneFired {
		return
	}
	c.doneFired = true
	c.metrics.Done = done
	c.metrics.DoneAt = c.sm.Now()
	c.metrics.Sender = c.snd.Stats()
	c.metrics.Receiver = c.rcv.Stats()
	c.cliTimer.Stop()
	c.snd.rtoTimer.Stop()
	c.snd.persistTimer.Stop()
	if c.snd.paceTimer != nil {
		c.snd.paceTimer.Stop()
	}
	c.rcv.delack.Stop()
	c.rcv.readTimer.Stop()
	if done {
		c.exchangeFINs()
	}
	if c.OnDone != nil {
		c.OnDone(&c.metrics)
	}
}

// exchangeFINs emits the closing handshake for trace completeness.
// Loss of these segments is tolerated without retransmission; the
// analysis metrics are already final.
func (c *Conn) exchangeFINs() {
	fin := &trace.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: c.snd.SndNxt(), Ack: uint32(c.srvRcvNxt), Wnd: c.srvWnd}
	c.record(trace.DirOut, fin)
	c.paths.Down(fin, wireSize(fin))
}

// --- client side ---

func (c *Conn) sendSYN() {
	c.synSent = true
	syn := &trace.Segment{Flags: packet.FlagSYN, Seq: c.cliISN, Wnd: c.cfg.Receiver.InitRwnd}
	c.pendingReq = syn
	c.cliTimer.Reset(c.clientRTO())
	c.paths.Up(syn, wireSize(syn))
}

func (c *Conn) clientRTO() time.Duration {
	d := c.cfg.ClientRTO
	for i := 0; i < c.cliBackoff; i++ {
		d *= 2
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

func (c *Conn) onClientTimer() {
	if c.doneFired || c.pendingReq == nil {
		return
	}
	c.cliBackoff++
	seg := *c.pendingReq
	c.cliTimer.Reset(c.clientRTO())
	c.paths.Up(&seg, wireSize(&seg))
}

// clientTransmit sends a receiver-generated pure ACK upstream.
func (c *Conn) clientTransmit(seg *trace.Segment) {
	seg.Seq = uint32(c.cliSndNxt)
	c.paths.Up(seg, wireSize(seg))
}

// ClientDeliver is the downlink path's delivery callback: a segment
// has reached the client.
func (c *Conn) ClientDeliver(pkt any) {
	if c.doneFired {
		return
	}
	seg := pkt.(*trace.Segment)
	if seg.Flags.Has(packet.FlagSYN | packet.FlagACK) {
		if !c.established {
			c.established = true
			c.metrics.EstablishedAt = c.sm.Now()
			c.pendingReq = nil
			c.cliTimer.Stop()
			c.cliBackoff = 0
			c.cliSndNxt = seqspace.Expand(c.cliISN) + 1
			// Handshake-completing ACK.
			ack := &trace.Segment{Flags: packet.FlagACK, Seq: uint32(c.cliSndNxt), Ack: seg.Seq + 1, Wnd: c.rcv.Window()}
			c.paths.Up(ack, wireSize(ack))
			c.scheduleNextRequest()
		}
		return
	}
	if seg.Flags.Has(packet.FlagFIN) {
		// Passive close: ACK the FIN; nothing else matters.
		ack := &trace.Segment{Flags: packet.FlagACK | packet.FlagFIN, Seq: uint32(c.cliSndNxt), Ack: seg.End(), Wnd: c.rcv.Window()}
		c.paths.Up(ack, wireSize(ack))
		return
	}
	// The server's ACK state rides on every downlink segment; once it
	// covers the in-flight request, stop the client retransmit timer.
	if c.pendingReq != nil && c.established && seg.Flags.Has(packet.FlagACK) {
		if seqspace.LessEq(c.pendingReq.Seq+uint32(c.pendingReq.Len), seg.Ack) {
			c.pendingReq = nil
			c.cliTimer.Stop()
		}
	}
	c.rcv.HandleData(seg)
}

func (c *Conn) scheduleNextRequest() {
	if c.reqIdx >= len(c.cfg.Requests) {
		return
	}
	req := c.cfg.Requests[c.reqIdx]
	idx := c.reqIdx
	c.reqIdx++
	c.sm.Schedule(req.IdleBefore, func() { c.issueRequest(idx) })
}

func (c *Conn) issueRequest(idx int) {
	if c.doneFired {
		return
	}
	seg := &trace.Segment{
		Flags: packet.FlagACK | packet.FlagPSH,
		Seq:   uint32(c.cliSndNxt),
		Len:   c.cfg.RequestSize,
		Ack:   c.rcv.RcvNxt(),
		Wnd:   c.rcv.Window(),
	}
	c.cliSndNxt += uint64(c.cfg.RequestSize)
	c.metrics.RequestSentAt = append(c.metrics.RequestSentAt, c.sm.Now())
	c.metrics.RequestDoneAt = append(c.metrics.RequestDoneAt, 0)
	c.pendingReq = seg
	c.cliBackoff = 0
	c.cliTimer.Reset(c.clientRTO())
	cp := *seg
	c.paths.Up(&cp, wireSize(&cp))
}

// onClientDeliver tracks how much response data the client app has
// consumed, to pace follow-up requests.
func (c *Conn) onClientDeliver(n int) {
	c.deliveredSz += int64(n)
	// When the response for the most recent request is fully
	// consumed, think, then issue the next request.
	var cum int64
	for i := 0; i < c.reqIdx; i++ {
		cum += c.cfg.Requests[i].Size
	}
	if c.deliveredSz >= cum && c.reqIdx < len(c.cfg.Requests) {
		c.scheduleNextRequest()
	}
}

// --- server side ---

// serverTransmit stamps server receive state onto an outgoing
// sender segment, records it, and puts it on the downlink.
func (c *Conn) serverTransmit(seg *trace.Segment) {
	seg.Ack = uint32(c.srvRcvNxt)
	seg.Wnd = c.srvWnd
	c.record(trace.DirOut, seg)
	c.paths.Down(seg, wireSize(seg))
}

// ServerDeliver is the uplink path's delivery callback: a segment has
// reached the server.
func (c *Conn) ServerDeliver(pkt any) {
	if c.doneFired {
		return
	}
	seg := pkt.(*trace.Segment)
	c.record(trace.DirIn, seg)

	if seg.Flags.Has(packet.FlagSYN) {
		// (Re)send SYN-ACK; duplicates are harmless (the unwrapper
		// resolves a retransmitted SYN to the same offset).
		if off := c.srvRcvU.Unwrap(seg.Seq); off+1 > c.srvRcvNxt {
			c.srvRcvNxt = off + 1
		}
		synack := &trace.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: c.srvISN, Ack: uint32(c.srvRcvNxt), Wnd: c.srvWnd}
		c.synackSentAt = c.sm.Now()
		c.record(trace.DirOut, synack)
		c.paths.Down(synack, wireSize(synack))
		return
	}
	// Seed the RTT estimator from the handshake, as Linux does: the
	// first post-SYN segment acknowledges our SYN-ACK.
	if !c.rttSeeded && c.synackSentAt > 0 {
		c.rttSeeded = true
		c.snd.SeedRTT(c.sm.Now().Sub(c.synackSentAt))
	}
	if seg.Flags.Has(packet.FlagFIN) {
		return // client's closing FIN; connection already done
	}

	if seg.Len > 0 {
		// Client request data. A duplicate copy (client retransmission)
		// still marks a request arrival for the ground truth: it is the
		// event that ends a client-side stall on the wire.
		end := c.srvRcvU.Unwrap(seg.Seq) + uint64(seg.Len)
		isNew := end > c.srvRcvNxt
		if isNew {
			c.srvRcvNxt = end
		}
		if c.truth != nil {
			c.truth.RequestArrival(c.sm.Now(), c.snd.HasOutstanding())
		}
		// Quick-ACK the request so the client timer disarms.
		ack := &trace.Segment{Flags: packet.FlagACK, Seq: c.snd.SndNxt(), Ack: uint32(c.srvRcvNxt), Wnd: c.srvWnd}
		c.record(trace.DirOut, ack)
		c.paths.Down(ack, wireSize(ack))
		if isNew {
			c.serveRequest()
		}
	}

	// Every incoming segment carries acknowledgment state for the
	// server's data stream.
	c.snd.HandleAck(seg)
	c.checkRequestCompletion()
}

// serveRequest starts the server application handling for the next
// unserved request.
func (c *Conn) serveRequest() {
	if c.served >= len(c.cfg.Requests) {
		return
	}
	req := c.cfg.Requests[c.served]
	c.served++
	prevEnd := c.snd.base // stream start: unwrapped offset of srvISN+1
	if n := len(c.respEnd); n > 0 {
		prevEnd = c.respEnd[n-1]
	}
	c.respEnd = append(c.respEnd, prevEnd+uint64(req.Size))
	c.metrics.BytesServed += req.Size

	// Feed the sender in chunks separated by the configured pauses.
	type chunk struct {
		bytes int64
		after time.Duration
	}
	var chunks []chunk
	first := chunk{after: req.HeadDelay}
	prevOff := int64(0)
	for _, p := range req.Pauses {
		if p.AfterBytes <= prevOff || p.AfterBytes >= req.Size {
			continue
		}
		first.bytes = p.AfterBytes - prevOff
		chunks = append(chunks, first)
		first = chunk{after: p.Duration}
		prevOff = p.AfterBytes
	}
	first.bytes = req.Size - prevOff
	chunks = append(chunks, first)

	var feed func(i int)
	feed = func(i int) {
		if c.doneFired || i >= len(chunks) {
			return
		}
		c.sm.Schedule(chunks[i].after, func() {
			if c.doneFired {
				return
			}
			if c.truth != nil && chunks[i].after > 0 {
				kind := WriteAfterPause
				if i == 0 {
					kind = WriteAfterHeadDelay
				}
				c.truth.AppWrite(c.sm.Now(), kind)
			}
			c.snd.Write(chunks[i].bytes)
			feed(i + 1)
		})
	}
	feed(0)
}

// checkRequestCompletion records response-acked times and finishes
// the connection when the last response is fully acknowledged.
func (c *Conn) checkRequestCompletion() {
	una := c.snd.sndUna64()
	for i, end := range c.respEnd {
		if c.metrics.RequestDoneAt[i] == 0 && una >= end && i < len(c.metrics.RequestDoneAt) {
			c.metrics.RequestDoneAt[i] = c.sm.Now()
		}
	}
	if len(c.respEnd) == len(c.cfg.Requests) && una >= c.respEnd[len(c.respEnd)-1] {
		c.finish(true)
	}
}

func (c *Conn) record(dir trace.Dir, seg *trace.Segment) {
	if c.sink == nil {
		return
	}
	// Segment stores SACK blocks inline, so a value copy is deep.
	c.sink.Record(c.sm.Now(), dir, *seg)
}
