// Package bad seeds seqsafe violations and false-positive guards.
package bad

type segment struct {
	Seq uint32
	Ack uint32
	Len int
}

type sackBlock struct {
	Left  uint32
	Right uint32
}

func violations(seq, ack uint32, seg segment, blk sackBlock) {
	if seq < ack { // want `raw uint32 sequence comparison wraps at 2\^32`
		_ = seq
	}
	if seg.Seq >= seg.Ack { // want `seqspace\.LessEq/Diff`
		_ = seg
	}
	d := seq - ack // want `raw uint32 sequence subtraction wraps at 2\^32`
	_ = d
	if blk.Left > blk.Right { // want `use seqspace\.LessEq`
		_ = blk
	}
	if uint32(seq) <= ack { // want `seqspace\.LessEq/Diff`
		_ = seq
	}
}

func sndNxt() uint32 { return 7 }

func accessorViolation(una uint32) {
	if sndNxt() > una { // want `seqspace\.LessEq/Diff`
		return
	}
}

// falsePositiveGuards must produce no findings: equality tests,
// comparisons against constants, non-sequence names, and unwrapped
// 64-bit offsets are all wrap-safe or out of scope.
func falsePositiveGuards(seq, ack uint32, crcA, crcB uint32, offSeq, offAck uint64, n int) {
	if seq == ack { // equality is wrap-agnostic
		_ = seq
	}
	if seq > 0 { // presence check against a constant
		_ = seq
	}
	if crcA < crcB { // uint32 but not sequence-named
		_ = crcA
	}
	if offSeq < offAck { // unwrapped uint64 offsets compare linearly
		_ = offSeq
	}
	if n < 3 { // plain int
		_ = n
	}
	sum := seq + 1 // addition is modular by design
	_ = sum
}
