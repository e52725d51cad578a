package core

import (
	"bytes"
	"encoding/json"
	"time"
)

// StallJSON is the one machine-readable stall record: every surface
// that reports a stall verdict (tapo -json, /stalls, -trace-out, the
// fleet wire) embeds it, and only (*Stall).JSON builds it.
type StallJSON struct {
	ID         int     `json:"id"`
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	DurationMS float64 `json:"duration_ms"`
	Cause      string  `json:"cause"`
	// SubCause is the Table-5 sub-cause of a timeout retransmission;
	// DoubleKind the Table-6 split of a double retransmission.
	SubCause   string `json:"sub_cause,omitempty"`
	DoubleKind string `json:"double_kind,omitempty"`
	Category   string `json:"category"`
	CaState    string `json:"ca_state"`
	InFlight   int    `json:"in_flight"`
	Rwnd       int    `json:"rwnd"`
}

// JSON renders the stall's verdict and its Table-2 context at stall
// start.
func (st *Stall) JSON() StallJSON {
	js := StallJSON{
		ID:         st.ID,
		StartS:     st.Start.Seconds(),
		EndS:       st.End.Seconds(),
		DurationMS: float64(st.Duration) / float64(time.Millisecond),
		Cause:      st.Cause.String(),
		Category:   CategoryOf(st.Cause).String(),
		CaState:    st.CaState.String(),
		InFlight:   st.InFlight,
		Rwnd:       st.Rwnd,
	}
	if st.Cause == CauseTimeoutRetrans {
		js.SubCause = st.RetransCause.String()
		if st.RetransCause == RetransDouble {
			js.DoubleKind = st.DoubleKind.String()
		}
	}
	return js
}

// JSONFlow is the machine-readable per-flow analysis.
type JSONFlow struct {
	ID            string      `json:"id"`
	Service       string      `json:"service,omitempty"`
	DataBytes     int64       `json:"data_bytes"`
	DataPackets   int         `json:"data_packets"`
	Retrans       int         `json:"retransmissions"`
	AvgRTTms      float64     `json:"avg_rtt_ms"`
	AvgRTOms      float64     `json:"avg_rto_ms,omitempty"`
	InitRwnd      int         `json:"init_rwnd"`
	ZeroRwnd      bool        `json:"zero_rwnd_seen"`
	TransmissionS float64     `json:"transmission_s"`
	StalledS      float64     `json:"stalled_s"`
	Stalls        []StallJSON `json:"stalls"`
}

// ToJSON converts one analysis to its machine-readable form.
func (a *FlowAnalysis) ToJSON() JSONFlow {
	jf := JSONFlow{
		ID:            a.FlowID,
		Service:       a.Service,
		DataBytes:     a.DataBytes,
		DataPackets:   a.DataPackets,
		Retrans:       a.RetransPackets,
		AvgRTTms:      a.AvgRTT(),
		AvgRTOms:      a.AvgRTO(),
		InitRwnd:      a.InitRwnd,
		ZeroRwnd:      a.ZeroRwndSeen,
		TransmissionS: a.TransmissionTime.Seconds(),
		StalledS:      a.TotalStallTime.Seconds(),
		Stalls:        []StallJSON{},
	}
	for i := range a.Stalls {
		jf.Stalls = append(jf.Stalls, a.Stalls[i].JSON())
	}
	return jf
}

// MarshalAnalyses renders analyses as the canonical indented JSON
// report. The encoding is deterministic: identical analyses in
// identical order produce identical bytes, which is the contract the
// pipeline's sequential-equivalence tests compare on.
func MarshalAnalyses(analyses []*FlowAnalysis) ([]byte, error) {
	out := make([]JSONFlow, 0, len(analyses))
	for _, a := range analyses {
		out = append(out, a.ToJSON())
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
