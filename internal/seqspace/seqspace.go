// Package seqspace implements TCP sequence-number arithmetic. Wire
// sequence numbers are 32-bit and wrap: a flow that starts at a random
// ISN near 2^32−1, or transfers more than 4 GiB, reuses numeric
// values, so raw uint32 comparisons silently invert. Two tools fix
// that everywhere the repo reasons about sequence space:
//
//   - modular comparisons (Less, LessEq, Diff) in the style of
//     RFC 793 §3.3 / RFC 1982: a is before b when the signed 32-bit
//     difference a−b is negative, which is correct as long as the two
//     values are within 2^31 of each other (always true inside one
//     flight window);
//
//   - an Unwrapper that maps wire values onto monotonic 64-bit stream
//     offsets, so scoreboards and maps can key by a value that never
//     collides across wraps.
package seqspace

// Bias is the epoch added to the first unwrapped value. Starting one
// full epoch up keeps legitimately-backward values (a zero-window
// probe at snd_una−1, a DSACK below the ISN, hostile garbage in a
// fuzzed pcap) from underflowing uint64 arithmetic: the reference can
// never travel more than 2^31−1 backward of where it has been.
const Bias = uint64(1) << 32

// Less reports whether wire sequence a is strictly before b in
// modular 32-bit arithmetic.
func Less(a, b uint32) bool { return int32(a-b) < 0 }

// LessEq reports whether a is at or before b.
func LessEq(a, b uint32) bool { return int32(a-b) <= 0 }

// Diff is the signed modular distance a−b (positive when a is after
// b). Callers must guarantee |a−b| < 2^31, which holds for any two
// values inside one window.
func Diff(a, b uint32) int32 { return int32(a - b) }

// Expand places a wire value in the first epoch, Bias|seq. It is the
// value Unwrap returns for the first sequence number it sees; use it
// to seed offsets that must agree with an Unwrapper initialized at the
// same wire value.
func Expand(seq uint32) uint64 { return Bias | uint64(seq) }

// Unwrapper maps wire sequence numbers onto monotonic uint64 stream
// offsets. The first value observed lands at Expand(first); every
// later value is placed within ±2^31 of the highest offset seen, so
// in-window values (data, ACKs, SACK edges, probes at snd_una−1) all
// unwrap consistently across any number of 2^32 wraps.
//
// The low 32 bits of every returned offset equal the wire value, so
// converting an offset back for the wire is uint32(off).
type Unwrapper struct {
	ref  uint64
	init bool
}

// Unwrap returns the stream offset of seq. The reference only moves
// forward (to the highest offset returned), so values up to 2^31−1
// behind the latest point keep resolving to their original offsets.
func (u *Unwrapper) Unwrap(seq uint32) uint64 {
	if !u.init {
		u.init = true
		u.ref = Expand(seq)
		return u.ref
	}
	d := int32(seq - uint32(u.ref))
	v := uint64(int64(u.ref) + int64(d))
	if v > u.ref {
		u.ref = v
	}
	return v
}
