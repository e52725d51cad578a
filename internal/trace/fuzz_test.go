package trace

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/sim"
)

// seedCapture builds a small two-flow capture via the real exporter so
// the fuzzer starts from structurally valid pcap bytes.
func seedCapture(tb testing.TB) []byte {
	rec := func(ms int, dir Dir, flags packet.TCPFlags, seq, ack uint32, n int) Record {
		return Record{
			T:   sim.Time(time.Duration(ms) * time.Millisecond),
			Dir: dir,
			Seg: Segment{Flags: flags, Seq: seq, Ack: ack, Len: n, Wnd: 65535},
		}
	}
	flows := []*Flow{
		{ID: "a", Service: "seed", MSS: 1460, Records: []Record{
			rec(0, DirIn, packet.FlagSYN, 0, 0, 0),
			rec(10, DirOut, packet.FlagSYN|packet.FlagACK, 0, 1, 0),
			rec(20, DirIn, packet.FlagACK, 1, 1, 0),
			rec(30, DirOut, packet.FlagACK, 1, 1, 1460),
			rec(50, DirIn, packet.FlagACK, 1, 1461, 0),
			rec(60, DirOut, packet.FlagFIN|packet.FlagACK, 1461, 1, 0),
			rec(70, DirIn, packet.FlagFIN|packet.FlagACK, 1, 1462, 0),
		}},
		{ID: "b", Service: "seed", MSS: 1460, Records: []Record{
			rec(5, DirIn, packet.FlagSYN, 0, 0, 0),
			rec(15, DirOut, packet.FlagSYN|packet.FlagACK, 0, 1, 0),
			rec(25, DirOut, packet.FlagRST, 1, 1, 0),
		}},
		// Server ISN a few KB below 2^32 so the data stream wraps
		// mid-flow: seeds the mutator with modular sequence arithmetic.
		{ID: "c", Service: "seed", MSS: 1460, Records: []Record{
			rec(0, DirIn, packet.FlagSYN, 0xCAFE0000, 0, 0),
			rec(10, DirOut, packet.FlagSYN|packet.FlagACK, 0xFFFFF000, 0xCAFE0001, 0),
			rec(20, DirIn, packet.FlagACK, 0xCAFE0001, 0xFFFFF001, 0),
			rec(30, DirOut, packet.FlagACK, 0xFFFFF001, 0xCAFE0001, 1460),
			rec(40, DirOut, packet.FlagACK, 0xFFFFF001+1460, 0xCAFE0001, 1460),
			rec(50, DirOut, packet.FlagACK, 0xFFFFF001+2920, 0xCAFE0001, 1460), // crosses 2^32
			rec(60, DirIn, packet.FlagACK, 0xCAFE0001, 285, 0),                 // 0xFFFFF001+4380 mod 2^32
			rec(70, DirOut, packet.FlagFIN|packet.FlagACK, 285, 0xCAFE0001, 0),
		}},
	}
	var buf bytes.Buffer
	if err := ExportPcap(&buf, flows, ExportConfig{}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImportPcap feeds arbitrary bytes to all three importers. They
// must return an error, never panic, and fail or succeed together.
// On success the demux must hold its invariants: a flow's FlowDone
// event, if any, is its last (no ID reappears after it), and the
// streaming importer emits exactly the flows the batch importer
// returns.
func FuzzImportPcap(f *testing.F) {
	valid := seedCapture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Add(valid[:24])
	f.Add([]byte{})
	// Header with a hostile record length follows in mutations.
	hostile := append([]byte{}, valid[:24+8]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f)
	f.Add(hostile)
	// A reset, then the same endpoint reconnects.
	c := newCapture(f)
	c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
	c.frame(true, clientA, packet.FlagRST, 1, 1, 0)
	c.frame(false, clientA, packet.FlagSYN, 50, 0, 0)
	c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 90, 51, 0)
	f.Add(c.buf.Bytes())
	// A raw-IP capture over IPv4 and IPv6, and an Ethernet one holding
	// a TSO segment whose IP length field is 0.
	f.Add(linkCapture(f, pcap.LinkTypeRaw,
		ipSegment(false, false, packet.FlagSYN, 0, 0),
		ipSegment(true, true, packet.FlagACK, 1, 100),
		ipSegment(false, false, packet.FlagRST, 1, 0)))
	f.Add(linkCapture(f, pcap.LinkTypeEthernet,
		ipSegment(false, true, packet.FlagACK, 1, 100),
		zeroIPLen(ipSegment(false, true, packet.FlagACK, 101, 500))))

	f.Fuzz(func(t *testing.T, data []byte) {
		flows, err := ImportPcap(bytes.NewReader(data), ImportConfig{})

		var streamed []string
		serr := ImportPcapStream(bytes.NewReader(data), ImportConfig{}, func(fl *Flow) error {
			streamed = append(streamed, fl.ID)
			return nil
		})
		done := map[string]bool{}
		rerr := ImportPcapRecords(bytes.NewReader(data), ImportConfig{}, func(ev RecordEvent) error {
			if done[ev.FlowID] {
				t.Fatalf("flow %s has an event after its FlowDone", ev.FlowID)
			}
			done[ev.FlowID] = ev.FlowDone
			return nil
		})
		if (err == nil) != (serr == nil) || (err == nil) != (rerr == nil) {
			t.Fatalf("batch err = %v, stream err = %v, per-record err = %v", err, serr, rerr)
		}
		if err != nil {
			return
		}
		var batch []string
		for _, fl := range flows {
			batch = append(batch, fl.ID)
		}
		sort.Strings(batch)
		sort.Strings(streamed)
		if !slices.Equal(batch, streamed) {
			t.Fatalf("batch flows %v, streamed flows %v", batch, streamed)
		}
	})
}
