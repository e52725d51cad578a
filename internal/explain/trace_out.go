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

// WriteTraceJSONL streams the flow as JSON lines: every record as a
// "pkt" time/sequence sample, and after each stall's closing record a
// "stall" line with the verdict and (when available) the full
// evidence. Lines appear in capture order, so a reader can replay the
// flow and the verdicts in one pass.
func WriteTraceJSONL(w io.Writer, f *trace.Flow, a *core.FlowAnalysis, rec *flight.Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	stallAt := make(map[int][]*core.Stall, len(a.Stalls))
	for i := range a.Stalls {
		st := &a.Stalls[i]
		stallAt[st.EndRecIdx] = append(stallAt[st.EndRecIdx], st)
	}
	for i := range f.Records {
		pkt := PktLine{Type: "pkt", Flow: a.FlowID, SampleJSON: flight.SampleOf(i, &f.Records[i]).JSON()}
		if err := enc.Encode(pkt); err != nil {
			return err
		}
		for _, st := range stallAt[i] {
			line := StallLine{Type: "stall", Flow: a.FlowID, StallJSON: st.JSON()}
			if st.Evidence != nil {
				if ev := rec.Evidence(st.Evidence.Stall); ev != nil {
					j := ev.JSON()
					line.Evidence = &j
				}
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
