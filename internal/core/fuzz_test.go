package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// fuzzRecSize is the fixed per-record encoding used by
// FuzzIncrementalFeed: control byte, seq, ack, wnd, len code, time
// delta — plus 8 more bytes for one SACK block when bit 6 of the
// control byte is set.
const fuzzRecSize = 14

// decodeFuzzRecords maps arbitrary bytes onto a syntactically valid
// record sequence: timestamps are accumulated deltas (so they never
// decrease), everything else is attacker-controlled.
func decodeFuzzRecords(data []byte) []trace.Record {
	var recs []trace.Record
	var t sim.Time
	for len(data) >= fuzzRecSize && len(recs) < 4096 {
		ctl := data[0]
		dir := tcpsim.DirOut
		if ctl&1 != 0 {
			dir = tcpsim.DirIn
		}
		var flags packet.TCPFlags
		if ctl&2 != 0 {
			flags |= packet.FlagSYN
		}
		if ctl&4 != 0 {
			flags |= packet.FlagACK
		}
		if ctl&8 != 0 {
			flags |= packet.FlagFIN
		}
		if ctl&16 != 0 {
			flags |= packet.FlagRST
		}
		if ctl&32 != 0 {
			flags |= packet.FlagPSH
		}
		seg := tcpsim.Segment{
			Flags: flags,
			Seq:   binary.LittleEndian.Uint32(data[1:5]),
			Ack:   binary.LittleEndian.Uint32(data[5:9]),
			Wnd:   int(binary.LittleEndian.Uint16(data[9:11])),
			Len:   int(data[11]) * 97, // 0..24735 bytes
		}
		dt := binary.LittleEndian.Uint16(data[12:14])
		data = data[fuzzRecSize:]
		if ctl&64 != 0 && len(data) >= 8 {
			s := binary.LittleEndian.Uint32(data[0:4])
			e := binary.LittleEndian.Uint32(data[4:8])
			seg.SACK = packet.SACKBlocks(packet.SACKBlock{Left: s, Right: e})
			data = data[8:]
		}
		t += sim.Time(dt) * sim.Time(time.Millisecond)
		recs = append(recs, trace.Record{T: t, Dir: dir, Seg: seg})
	}
	return recs
}

// encodeFuzzRecord builds one seed record in the fuzz wire format.
func encodeFuzzRecord(dir tcpsim.Dir, flags packet.TCPFlags, seq, ack uint32, wnd, lenCode int, dtMS uint16) []byte {
	b := make([]byte, fuzzRecSize)
	if dir == tcpsim.DirIn {
		b[0] |= 1
	}
	if flags.Has(packet.FlagSYN) {
		b[0] |= 2
	}
	if flags.Has(packet.FlagACK) {
		b[0] |= 4
	}
	if flags.Has(packet.FlagFIN) {
		b[0] |= 8
	}
	binary.LittleEndian.PutUint32(b[1:5], seq)
	binary.LittleEndian.PutUint32(b[5:9], ack)
	binary.LittleEndian.PutUint16(b[9:11], uint16(wnd))
	b[11] = byte(lenCode)
	binary.LittleEndian.PutUint16(b[12:14], dtMS)
	return b
}

// FuzzIncrementalFeed drives the streaming analyzer with arbitrary
// record sequences and checks the invariants no input may break:
// no panic, a scoreboard whose counters and cursor match a full scan
// and whose window and retired set hold each sent offset once with its
// copy count (FeedChecked), byte-identical output to the batch analyzer over
// the same records, stall bounds ordered with nondecreasing close
// times, and exactly one live event per final stall.
func FuzzIncrementalFeed(f *testing.F) {
	// Seed: a plausible handshake + request + paced response.
	var normal []byte
	normal = append(normal, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	normal = append(normal, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	normal = append(normal, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 30)...)
	for i := 0; i < 6; i++ {
		normal = append(normal, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, uint16(20+400*(i%2)))...)
	}
	f.Add(normal)

	// Seed: ISN near the top of sequence space, so the response wraps
	// through 2^32 — the seqspace.Unwrapper's hard case.
	var wrapped []byte
	wrapISN := uint32(0xFFFFF000)
	wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 7, 0, 60000, 0, 0)...)
	wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, wrapISN, 8, 65535, 0, 1)...)
	for i := 0; i < 8; i++ {
		wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, wrapISN+1+uint32(i)*1455, 8, 65535, 15, uint16(25+700*(i%3/2)))...)
		wrapped = append(wrapped, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 8, wrapISN+1+uint32(i+1)*1455, 60000, 0, 5)...)
	}
	f.Add(wrapped)

	// Seed: wrapped ISN combined with clock skew — SACK blocks that
	// straddle the 2^32 boundary while the time deltas alternate
	// between near-zero and near-maximum, so every seqsafe-protected
	// comparison (SACK edges, dup-ACK runs, RTT pairing) is exercised
	// right at the wrap with hostile pacing.
	var skew []byte
	skewISN := uint32(0xFFFFFB00)
	skew = append(skew, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 42, 0, 60000, 0, 0)...)
	skew = append(skew, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, skewISN, 43, 65535, 0, 1)...)
	for i := 0; i < 6; i++ {
		dt := uint16(1)
		if i%2 == 1 {
			dt = 65000 // ~65s jump: alternating tiny/huge deltas
		}
		skew = append(skew, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, skewISN+1+uint32(i)*1455, 43, 65535, 15, dt)...)
		// Cumulative ACK lags behind; a SACK block crosses the wrap.
		ackRec := encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 43, skewISN+1, 60000, 0, 1)
		ackRec[0] |= 64 // attach a SACK block
		var blk [8]byte
		binary.LittleEndian.PutUint32(blk[0:4], skewISN+1+uint32(i)*1455)   // left edge below the wrap…
		binary.LittleEndian.PutUint32(blk[4:8], skewISN+1+uint32(i+1)*1455) // …right edge past it
		skew = append(skew, ackRec...)
		skew = append(skew, blk[:]...)
	}
	f.Add(skew)

	// Seed: enough segments ACKed one by one that the analyzer retires
	// acked history, one of them short so that two runs meet, then a
	// resend of a retired segment and a DSACK for it — the retired
	// set's lookups.
	var long []byte
	long = append(long, encodeFuzzRecord(tcpsim.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	long = append(long, encodeFuzzRecord(tcpsim.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	long = append(long, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 10)...)
	seq := uint32(5001)
	for i := 0; i < retireMin+8; i++ {
		code := 15
		if i == 10 {
			code = 5
		}
		long = append(long, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, seq, 101, 65535, code, 1)...)
		seq += uint32(code * 97)
		long = append(long, encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, seq, 65535, 0, 2)...)
	}
	long = append(long, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 5001+3*1455, 101, 65535, 15, 1)...)
	dsack := encodeFuzzRecord(tcpsim.DirIn, packet.FlagACK, 101, seq, 65535, 0, 2)
	dsack[0] |= 64 // attach a SACK block: segment 3, below the ACK
	var dblk [8]byte
	binary.LittleEndian.PutUint32(dblk[0:4], 5001+3*1455)
	binary.LittleEndian.PutUint32(dblk[4:8], 5001+4*1455)
	long = append(long, dsack...)
	long = append(long, dblk[:]...)
	f.Add(long)

	// Seed: pathological — a retransmission-shaped repeat with RST.
	var hostile []byte
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 1000, 1, 0, 20, 0)...)
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirOut, packet.FlagACK, 1000, 1, 0, 20, 9000)...)
	hostile = append(hostile, encodeFuzzRecord(tcpsim.DirIn, packet.FlagRST, 1, 0, 0, 0, 1)...)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFuzzRecords(data)
		if len(recs) == 0 {
			return
		}

		var events []LiveStall
		inc := NewIncremental(Config{})
		inc.SetMeta(FlowMeta{ID: "fuzz", Service: "fuzz"})
		inc.OnStall = func(ls LiveStall) { events = append(events, ls) }
		FeedChecked(t, inc, recs)
		a := inc.Flush()

		flow := &trace.Flow{ID: "fuzz", Service: "fuzz", Records: recs}
		want := Analyze(flow, Config{})

		got, err := MarshalAnalyses([]*FlowAnalysis{a})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := MarshalAnalyses([]*FlowAnalysis{want})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("incremental != batch\ninc:   %s\nbatch: %s", got, ref)
		}

		if len(events) != len(a.Stalls) {
			t.Fatalf("%d live events, %d final stalls", len(events), len(a.Stalls))
		}
		var prevEnd sim.Time
		for i, st := range a.Stalls {
			if st.Start >= st.End {
				t.Errorf("stall %d: Start %v >= End %v", i, st.Start, st.End)
			}
			if st.End < prevEnd {
				t.Errorf("stall %d: close time %v regresses below %v", i, st.End, prevEnd)
			}
			prevEnd = st.End
			if events[i].Stall.Cause != st.Cause {
				t.Errorf("stall %d: live cause %v != final %v", i, events[i].Stall.Cause, st.Cause)
			}
		}
	})
}
