package trace

import (
	"bytes"
	"testing"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
)

func TestCollectorMaxRecords(t *testing.T) {
	c := NewCollector("cap", "test")
	c.MaxRecords = 5
	for i := 0; i < 8; i++ {
		c.Record(sim.Time(i), tcpsim.DirOut, tcpsim.Segment{Seq: uint32(i * 1460), Len: 1460})
	}
	if got := len(c.Flow.Records); got != 5 {
		t.Errorf("retained %d records, want 5", got)
	}
	if !c.Flow.Truncated {
		t.Error("flow not marked Truncated")
	}
	if c.Flow.DroppedRecords != 3 {
		t.Errorf("DroppedRecords = %d, want 3", c.Flow.DroppedRecords)
	}
}

func TestCollectorUnlimitedByDefault(t *testing.T) {
	c := NewCollector("nocap", "test")
	for i := 0; i < 1000; i++ {
		c.Record(sim.Time(i), tcpsim.DirOut, tcpsim.Segment{Seq: uint32(i), Len: 1})
	}
	if len(c.Flow.Records) != 1000 || c.Flow.Truncated || c.Flow.DroppedRecords != 0 {
		t.Errorf("default collector truncated: %d records, truncated=%v dropped=%d",
			len(c.Flow.Records), c.Flow.Truncated, c.Flow.DroppedRecords)
	}
}

// TestImportPcapRecordsMatchesFlows replays a two-connection capture
// through the per-record streamer and checks every event matches the
// flow importer's assembly: same IDs (including the generation
// suffix), same records in the same order, and FlowDone exactly where
// the streaming flow importer completes a connection.
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

	var evs []RecordEvent
	err := ImportPcapRecords(bytes.NewReader(c.buf.Bytes()), ImportConfig{}, func(ev RecordEvent) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 {
		t.Fatalf("streamed %d events, want 9", len(evs))
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

	// FlowDone fires on connection A's RST and nowhere else in this
	// capture (B never tears down; A#2 never completes).
	var doneIDs []string
	for _, ev := range evs {
		if ev.FlowDone {
			doneIDs = append(doneIDs, ev.FlowID)
		}
	}
	if len(doneIDs) != 1 || doneIDs[0] != "100.64.0.1:12345" {
		t.Errorf("FlowDone events = %v, want exactly [100.64.0.1:12345]", doneIDs)
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
