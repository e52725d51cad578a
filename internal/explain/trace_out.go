package explain

import (
	"bufio"
	"encoding/json"
	"io"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
)

// PktLine is one tcptrace-style time/sequence sample: a single
// captured record, tagged so plotting tools can split directions and
// overlay stall spans.
type PktLine struct {
	Type string `json:"type"` // "pkt"
	Flow string `json:"flow"`
	flight.SampleJSON
}

// StallLine marks one classified stall span, carrying the evidence
// (decision path + window) inline when the recorder held it.
type StallLine struct {
	Type string `json:"type"` // "stall"
	Flow string `json:"flow"`
	core.StallJSON
	Evidence *flight.EvidenceJSON `json:"evidence,omitempty"`
}

// TraceWriter streams flows as JSON lines: each record as a "pkt"
// time/sequence sample as it is read, and each stall as a "stall"
// line with the verdict and (when available) the full evidence once
// its flow's analysis is settled. Write errors are sticky: after one,
// every call returns it.
type TraceWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewTraceWriter returns a TraceWriter buffering into w; Flush writes
// out what is buffered.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Pkt writes r, record idx of flow, as a "pkt" line.
func (tw *TraceWriter) Pkt(flow string, idx int, r *trace.Record) error {
	return tw.enc.Encode(PktLine{Type: "pkt", Flow: flow, SampleJSON: flight.SampleOf(idx, r).JSON()})
}

// Stalls writes a "stall" line for each of a's stalls, in stall-ID
// order, with the evidence rec holds for it.
func (tw *TraceWriter) Stalls(a *core.FlowAnalysis, rec *flight.Recorder) error {
	for i := range a.Stalls {
		line := StallLine{Type: "stall", Flow: a.FlowID, StallJSON: a.Stalls[i].JSON()}
		if ev := rec.Evidence(a.Stalls[i].ID); ev != nil {
			j := ev.JSON()
			line.Evidence = &j
		}
		if err := tw.enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes out the buffered lines.
func (tw *TraceWriter) Flush() error { return tw.bw.Flush() }
