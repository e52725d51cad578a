package trace

import (
	"bytes"
	"slices"
	"testing"

	"tcpstall/internal/packet"
)

// TestImportPcapRecordsMatchesFlows replays a two-connection capture
// through the per-record streamer and checks every event matches the
// flow importer's assembly: same IDs (including the generation
// suffix), same records in the same order, and FlowDone exactly where
// a connection completes — on an RST, or on the pure ACK after FINs
// both ways, never on a FIN and never on a FIN-only close.
func TestImportPcapRecordsMatchesFlows(t *testing.T) {
	c := newCapture(t)
	// Connection A: handshake, data, RST teardown, then the endpoint
	// reconnects (generation #2).
	c.frame(false, clientA, packet.FlagSYN, 100, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 500, 101, 0)
	c.frame(false, clientA, packet.FlagACK, 101, 501, 0)
	c.frame(true, clientA, packet.FlagACK, 501, 101, 1460)
	// Connection B interleaves.
	c.frame(false, clientB, packet.FlagSYN, 9000, 0, 0)
	c.frame(true, clientB, packet.FlagSYN|packet.FlagACK, 40, 9001, 0)
	c.frame(false, clientA, packet.FlagRST, 101, 0, 0)
	c.frame(false, clientA, packet.FlagSYN, 7000, 0, 0) // generation 2
	c.frame(true, clientB, packet.FlagACK, 41, 9001, 1000)
	// A#2 closes with FINs both ways and the final ACK; B closes with
	// FINs only, the simulator's shape, interleaved with A#2's close.
	c.frame(true, clientA, packet.FlagFIN|packet.FlagACK, 600, 7001, 0)
	c.frame(true, clientB, packet.FlagFIN|packet.FlagACK, 1041, 9001, 0)
	c.frame(false, clientA, packet.FlagFIN|packet.FlagACK, 7001, 601, 0)
	c.frame(false, clientB, packet.FlagFIN|packet.FlagACK, 9001, 1042, 0)
	c.frame(true, clientA, packet.FlagACK, 601, 7002, 0)

	var evs []RecordEvent
	err := ImportPcapRecords(bytes.NewReader(c.buf.Bytes()), ImportConfig{}, func(ev RecordEvent) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 14 {
		t.Fatalf("streamed %d events, want 14", len(evs))
	}

	// Reassemble per flow and compare against the streaming flow
	// importer's assembly of the same events.
	byID := map[string][]Record{}
	var order []string
	for _, ev := range evs {
		if _, ok := byID[ev.FlowID]; !ok {
			order = append(order, ev.FlowID)
		}
		byID[ev.FlowID] = append(byID[ev.FlowID], ev.Rec)
	}
	flows := c.stream()
	if len(flows) != len(order) {
		t.Fatalf("record stream saw %d flows (%v), flow importer %d", len(order), order, len(flows))
	}
	for _, f := range flows {
		recs, ok := byID[f.ID]
		if !ok {
			t.Errorf("flow %q missing from record stream (have %v)", f.ID, order)
			continue
		}
		if len(recs) != len(f.Records) {
			t.Errorf("flow %q: %d streamed records, want %d", f.ID, len(recs), len(f.Records))
			continue
		}
		for i := range recs {
			if recs[i].T != f.Records[i].T || recs[i].Dir != f.Records[i].Dir ||
				recs[i].Seg.Seq != f.Records[i].Seg.Seq || recs[i].Seg.Len != f.Records[i].Seg.Len {
				t.Errorf("flow %q record %d differs: %+v vs %+v", f.ID, i, recs[i], f.Records[i])
			}
		}
	}

	// FlowDone fires on A's RST and on A#2's closing ACK, nowhere else.
	var done []int
	for i, ev := range evs {
		if ev.FlowDone {
			done = append(done, i)
		}
	}
	if !slices.Equal(done, []int{6, 13}) || evs[6].FlowID != "100.64.0.1:12345" || evs[13].FlowID != "100.64.0.1:12345#2" {
		t.Errorf("FlowDone at events %v, want [6 13] (A's RST, A#2's closing ACK)", done)
	}

	// The generation suffix must match the flow importer's.
	if _, ok := byID["100.64.0.1:12345#2"]; !ok {
		t.Errorf("reconnected endpoint missing #2 generation: %v", order)
	}

	// SYN events must carry the client's advertised window.
	if evs[0].InitRwnd == 0 {
		t.Error("client SYN event carries no InitRwnd")
	}
}
