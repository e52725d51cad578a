package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
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
		dir := trace.DirOut
		if ctl&1 != 0 {
			dir = trace.DirIn
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
		seg := trace.Segment{
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
func encodeFuzzRecord(dir trace.Dir, flags packet.TCPFlags, seq, ack uint32, wnd, lenCode int, dtMS uint16) []byte {
	b := make([]byte, fuzzRecSize)
	if dir == trace.DirIn {
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

// AnalyzeHeld is Analyze with every stall held unsettled until Flush,
// so that each is classified with the whole flow known: the reference
// a verdict settled mid-flow must equal. It is exported for the
// external test package.
func AnalyzeHeld(f *trace.Flow) *FlowAnalysis {
	inc := NewIncremental(Config{})
	inc.SetMeta(FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
	inc.a.holdUntilFlush = true
	inc.FeedBatch(f.Records)
	return inc.Flush()
}

// CheckLiveStalls requires the streaming contract of one flow: one
// OnStall event per stall of ref (AnalyzeHeld's analysis), in ID
// order, each carrying the flow's identity and ref's stall itself —
// its JSON, TailState and every other field — except Position, which
// only Flush fills and which OnStall reports as −1. It is exported for
// the external test package.
func CheckLiveStalls(tb testing.TB, events []LiveStall, ref *FlowAnalysis) {
	tb.Helper()
	if len(events) != len(ref.Stalls) {
		tb.Fatalf("%s: %d OnStall events, %d stalls", ref.FlowID, len(events), len(ref.Stalls))
	}
	for i, ev := range events {
		got, want := ev.Stall, ref.Stalls[i]
		if ev.FlowID != ref.FlowID || ev.Service != ref.Service {
			tb.Errorf("%s: event %d identity = %s/%s", ref.FlowID, i, ev.FlowID, ev.Service)
		}
		if got.Position != -1 {
			tb.Errorf("%s: event %d Position = %v, want -1 (Flush-only)", ref.FlowID, i, got.Position)
		}
		got.Position = want.Position
		if got != want {
			tb.Errorf("%s: event %d\nOnStall %+v\nheld to Flush %+v", ref.FlowID, i, got, want)
		}
	}
}

// seedLateDSACK is a timeout retransmission with five segments above
// it, so the tail test fails at close. Its DSACK arrives 80 ms later,
// and the stall settles then, as ACK delay/loss; at close the walk
// would have read continuous loss.
func seedLateDSACK() []byte {
	var b []byte
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 30)...)
	for i := 0; i < 6; i++ {
		b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, 1)...)
	}
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001, 101, 65535, 15, 500)...)
	all := uint32(5001 + 6*1455)
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, all, 65535, 0, 30)...)
	dsack := encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, all, 65535, 0, 50)
	dsack[0] |= 64 // a SACK block below the ACK: a DSACK for segment 0
	var blk [8]byte
	binary.LittleEndian.PutUint32(blk[0:4], 5001)
	binary.LittleEndian.PutUint32(blk[4:8], 5001+1455)
	b = append(append(b, dsack...), blk[:]...)
	for i := 6; i < 9; i++ {
		b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, 10)...)
	}
	return b
}

// seedLateRequest has two timeout retransmissions whose tail test is
// open at close. The first response goes on after its stall, so the
// stall is no tail, though at close it looked like one. The second
// stall's response end is fixed by the next request, which arrives
// after the close: it settles then, as a tail.
func seedLateRequest() []byte {
	var b []byte
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 30)...)
	seg := func(i int) uint32 { return 5001 + uint32(i)*1455 }
	for i := 0; i < 3; i++ {
		b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(i), 101, 65535, 15, 1)...)
	}
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(0), 101, 65535, 15, 500)...)
	for i := 3; i < 5; i++ {
		b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(i), 101, 65535, 15, 1)...)
	}
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, seg(5), 65535, 0, 30)...)
	// The second request, past the first stall's DSACK horizon.
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 201, seg(5), 65535, 3, 2500)...)
	for i := 5; i < 7; i++ {
		b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(i), 201, 65535, 15, 1)...)
	}
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(5), 201, 65535, 15, 800)...)
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 201, seg(7), 65535, 0, 30)...)
	// The third request fixes the second response's end.
	b = append(b, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 301, seg(7), 65535, 3, 40)...)
	b = append(b, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seg(7), 301, 65535, 15, 5)...)
	return b
}

// FuzzIncrementalFeed drives the streaming analyzer with arbitrary
// record sequences and checks the invariants no input may break:
// no panic, a scoreboard whose counters and cursor match a full scan
// and whose window and retired set hold each sent offset once with its
// copy count (FeedChecked), byte-identical output to the batch analyzer over
// the same records and to a run that settles nothing before Flush,
// stall bounds ordered with nondecreasing close times, and one OnStall
// event per stall that equals that run's (CheckLiveStalls).
func FuzzIncrementalFeed(f *testing.F) {
	// Seed: a plausible handshake + request + paced response.
	var normal []byte
	normal = append(normal, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	normal = append(normal, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	normal = append(normal, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 30)...)
	for i := 0; i < 6; i++ {
		normal = append(normal, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, uint16(20+400*(i%2)))...)
	}
	f.Add(normal)

	// Seed: ISN near the top of sequence space, so the response wraps
	// through 2^32 — the seqspace.Unwrapper's hard case.
	var wrapped []byte
	wrapISN := uint32(0xFFFFF000)
	wrapped = append(wrapped, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 7, 0, 60000, 0, 0)...)
	wrapped = append(wrapped, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, wrapISN, 8, 65535, 0, 1)...)
	for i := 0; i < 8; i++ {
		wrapped = append(wrapped, encodeFuzzRecord(trace.DirOut, packet.FlagACK, wrapISN+1+uint32(i)*1455, 8, 65535, 15, uint16(25+700*(i%3/2)))...)
		wrapped = append(wrapped, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 8, wrapISN+1+uint32(i+1)*1455, 60000, 0, 5)...)
	}
	f.Add(wrapped)

	// Seed: wrapped ISN combined with clock skew — SACK blocks that
	// straddle the 2^32 boundary while the time deltas alternate
	// between near-zero and near-maximum, so every seqsafe-protected
	// comparison (SACK edges, dup-ACK runs, RTT pairing) is exercised
	// right at the wrap with hostile pacing.
	var skew []byte
	skewISN := uint32(0xFFFFFB00)
	skew = append(skew, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 42, 0, 60000, 0, 0)...)
	skew = append(skew, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, skewISN, 43, 65535, 0, 1)...)
	for i := 0; i < 6; i++ {
		dt := uint16(1)
		if i%2 == 1 {
			dt = 65000 // ~65s jump: alternating tiny/huge deltas
		}
		skew = append(skew, encodeFuzzRecord(trace.DirOut, packet.FlagACK, skewISN+1+uint32(i)*1455, 43, 65535, 15, dt)...)
		// Cumulative ACK lags behind; a SACK block crosses the wrap.
		ackRec := encodeFuzzRecord(trace.DirIn, packet.FlagACK, 43, skewISN+1, 60000, 0, 1)
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
	long = append(long, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	long = append(long, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	long = append(long, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 10)...)
	seq := uint32(5001)
	for i := 0; i < retireMin+8; i++ {
		code := 15
		if i == 10 {
			code = 5
		}
		long = append(long, encodeFuzzRecord(trace.DirOut, packet.FlagACK, seq, 101, 65535, code, 1)...)
		seq += uint32(code * 97)
		long = append(long, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, seq, 65535, 0, 2)...)
	}
	long = append(long, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+3*1455, 101, 65535, 15, 1)...)
	dsack := encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, seq, 65535, 0, 2)
	dsack[0] |= 64 // attach a SACK block: segment 3, below the ACK
	var dblk [8]byte
	binary.LittleEndian.PutUint32(dblk[0:4], 5001+3*1455)
	binary.LittleEndian.PutUint32(dblk[4:8], 5001+4*1455)
	long = append(long, dsack...)
	long = append(long, dblk[:]...)
	f.Add(long)

	// Seed: a repacketized retransmission at a new offset inside the
	// window, below entries sent before it, then resends of an entry
	// above it and of itself — the window out of offset order — and an
	// ACK covering all of it.
	var repack []byte
	repack = append(repack, encodeFuzzRecord(trace.DirIn, packet.FlagSYN, 100, 0, 65535, 0, 0)...)
	repack = append(repack, encodeFuzzRecord(trace.DirOut, packet.FlagSYN|packet.FlagACK, 5000, 101, 65535, 0, 1)...)
	repack = append(repack, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001, 65535, 3, 10)...)
	for i := 0; i < 4; i++ {
		repack = append(repack, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+uint32(i)*1455, 101, 65535, 15, 1)...)
	}
	repack = append(repack, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+1455+700, 101, 65535, 15, 5)...)
	repack = append(repack, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+3*1455, 101, 65535, 15, 5)...)
	repack = append(repack, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 5001+1455+700, 101, 65535, 15, 5)...)
	repack = append(repack, encodeFuzzRecord(trace.DirIn, packet.FlagACK, 101, 5001+4*1455, 65535, 0, 5)...)
	f.Add(repack)

	// Seeds: verdicts that settle after close — on a late DSACK, and on
	// a response end fixed after close.
	f.Add(seedLateDSACK())
	f.Add(seedLateRequest())

	// Seed: pathological — a retransmission-shaped repeat with RST.
	var hostile []byte
	hostile = append(hostile, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 1000, 1, 0, 20, 0)...)
	hostile = append(hostile, encodeFuzzRecord(trace.DirOut, packet.FlagACK, 1000, 1, 0, 20, 9000)...)
	hostile = append(hostile, encodeFuzzRecord(trace.DirIn, packet.FlagRST, 1, 0, 0, 0, 1)...)
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
		held := AnalyzeHeld(flow)
		got, err := MarshalAnalyses([]*FlowAnalysis{a})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			name string
			a    *FlowAnalysis
		}{{"batch", Analyze(flow, Config{})}, {"held to Flush", held}} {
			ref, err := MarshalAnalyses([]*FlowAnalysis{w.a})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("incremental != %s\ninc: %s\nref: %s", w.name, got, ref)
			}
		}

		CheckLiveStalls(t, events, held)
		var prevEnd sim.Time
		for i, st := range a.Stalls {
			if st.Start >= st.End {
				t.Errorf("stall %d: Start %v >= End %v", i, st.Start, st.End)
			}
			if st.End < prevEnd {
				t.Errorf("stall %d: close time %v regresses below %v", i, st.End, prevEnd)
			}
			prevEnd = st.End
		}
	})
}
