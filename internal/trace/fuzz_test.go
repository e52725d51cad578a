package trace

import (
	"bytes"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
)

// seedCapture builds a small two-flow capture via the real exporter so
// the fuzzer starts from structurally valid pcap bytes.
func seedCapture(tb testing.TB) []byte {
	rec := func(ms int, dir tcpsim.Dir, flags packet.TCPFlags, seq, ack uint32, n int) Record {
		return Record{
			T:   sim.Time(time.Duration(ms) * time.Millisecond),
			Dir: dir,
			Seg: tcpsim.Segment{Flags: flags, Seq: seq, Ack: ack, Len: n, Wnd: 65535},
		}
	}
	flows := []*Flow{
		{ID: "a", Service: "seed", MSS: 1460, Records: []Record{
			rec(0, tcpsim.DirIn, packet.FlagSYN, 0, 0, 0),
			rec(10, tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 0, 1, 0),
			rec(20, tcpsim.DirIn, packet.FlagACK, 1, 1, 0),
			rec(30, tcpsim.DirOut, packet.FlagACK, 1, 1, 1460),
			rec(50, tcpsim.DirIn, packet.FlagACK, 1, 1461, 0),
			rec(60, tcpsim.DirOut, packet.FlagFIN|packet.FlagACK, 1461, 1, 0),
			rec(70, tcpsim.DirIn, packet.FlagFIN|packet.FlagACK, 1, 1462, 0),
		}},
		{ID: "b", Service: "seed", MSS: 1460, Records: []Record{
			rec(5, tcpsim.DirIn, packet.FlagSYN, 0, 0, 0),
			rec(15, tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 0, 1, 0),
			rec(25, tcpsim.DirOut, packet.FlagRST, 1, 1, 0),
		}},
		// Server ISN a few KB below 2^32 so the data stream wraps
		// mid-flow: seeds the mutator with modular sequence arithmetic.
		{ID: "c", Service: "seed", MSS: 1460, Records: []Record{
			rec(0, tcpsim.DirIn, packet.FlagSYN, 0xCAFE0000, 0, 0),
			rec(10, tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 0xFFFFF000, 0xCAFE0001, 0),
			rec(20, tcpsim.DirIn, packet.FlagACK, 0xCAFE0001, 0xFFFFF001, 0),
			rec(30, tcpsim.DirOut, packet.FlagACK, 0xFFFFF001, 0xCAFE0001, 1460),
			rec(40, tcpsim.DirOut, packet.FlagACK, 0xFFFFF001+1460, 0xCAFE0001, 1460),
			rec(50, tcpsim.DirOut, packet.FlagACK, 0xFFFFF001+2920, 0xCAFE0001, 1460), // crosses 2^32
			rec(60, tcpsim.DirIn, packet.FlagACK, 0xCAFE0001, 285, 0),                 // 0xFFFFF001+4380 mod 2^32
			rec(70, tcpsim.DirOut, packet.FlagFIN|packet.FlagACK, 285, 0xCAFE0001, 0),
		}},
	}
	var buf bytes.Buffer
	if err := ExportPcap(&buf, flows, ExportConfig{}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImportPcap feeds arbitrary bytes to all three importers. The
// contract under attack: they must return an error, never panic, fail
// or succeed together, and whenever the batch importer succeeds the
// streaming and per-record importers must see the same total record
// count.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		flows, err := ImportPcap(bytes.NewReader(data), ImportConfig{})
		var batchRecords int
		for _, fl := range flows {
			batchRecords += len(fl.Records)
		}

		var streamRecords int
		serr := ImportPcapStream(bytes.NewReader(data), ImportConfig{}, func(fl *Flow) error {
			streamRecords += len(fl.Records)
			return nil
		})
		if (err == nil) != (serr == nil) {
			t.Fatalf("batch err = %v, stream err = %v", err, serr)
		}
		if err == nil && batchRecords != streamRecords {
			t.Fatalf("batch reassembled %d records, stream %d", batchRecords, streamRecords)
		}

		var perRecord int
		rerr := ImportPcapRecords(bytes.NewReader(data), ImportConfig{}, func(RecordEvent) error {
			perRecord++
			return nil
		})
		if (err == nil) != (rerr == nil) {
			t.Fatalf("batch err = %v, per-record err = %v", err, rerr)
		}
		if err == nil && batchRecords != perRecord {
			t.Fatalf("batch reassembled %d records, per-record importer %d", batchRecords, perRecord)
		}
	})
}
