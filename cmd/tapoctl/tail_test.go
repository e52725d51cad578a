package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/fleet"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
)

// TestPrintEvent renders a member_join and a stall event as tail
// reads them: decoded from the JSON of the head's own event backlog.
func TestPrintEvent(t *testing.T) {
	at := time.Date(2024, 1, 2, 3, 4, 5, 0, time.Local)
	head := fleet.NewHead(fleet.HeadConfig{Clock: func() time.Time { return at }})
	reg, err := head.Register(fleet.RegisterRequest{Version: fleet.WireVersion, MemberID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	st := core.Stall{
		ID: 2, Cause: core.CauseTimeoutRetrans, RetransCause: core.RetransTail, Duration: 412 * time.Millisecond,
	}
	snap := fleet.Snapshot{
		Version: fleet.WireVersion, MemberID: "edge-1", Epoch: reg.Epoch, Seq: 1,
		Counters: fleet.Counters{DurationsMS: stats.NewHistogram(live.DurationBoundsMS).State()},
		Events: []fleet.StallEvent{{
			TimeMS: at.Add(time.Second).UnixMilli(), Service: "web-search", FlowHash: 0xbeef, StallJSON: st.JSON(),
		}},
	}
	if resp := head.Push(&snap); !resp.OK {
		t.Fatalf("push: %+v", resp)
	}
	raw, err := json.Marshal(head.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	var er fleet.EventsResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ev := range er.Events {
		printEvent(&buf, ev)
	}
	want := "03:04:05  member_join     edge-1\n" +
		"03:04:06  stall           edge-1       web-search retransmission 412ms flow=0000beef\n"
	if got := buf.String(); got != want {
		t.Errorf("printEvent:\n%s\nwant:\n%s", got, want)
	}
}
