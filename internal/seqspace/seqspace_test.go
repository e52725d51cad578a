package seqspace

import (
	"math/rand"
	"testing"
)

// TestLessAroundWrap checks the modular order at the exact wrap point:
// any positive in-window step must order forward even when the raw
// uint32 comparison inverts.
func TestLessAroundWrap(t *testing.T) {
	cases := []struct {
		a, b uint32
		less bool
	}{
		{0, 1, true},
		{1, 0, false},
		{0, 0, false},
		{0xFFFFFFFF, 0, true},           // wrap by one
		{0, 0xFFFFFFFF, false},          // and its inverse
		{0xFFFFFF00, 0x00000100, true},  // wrap across a window
		{0x00000100, 0xFFFFFF00, false}, //
		{0x7FFFFFFF, 0x80000000, true},  // mid-space boundary
		{0, 0x7FFFFFFF, true},           // max forward distance
		{0xFFFFFFFF, 0x7FFFFFFE, true},  // max forward across wrap
	}
	// The exact half-space distance (2^31) is ambiguous by design
	// (RFC 1982 leaves it undefined); antisymmetry holds only for
	// |a−b| < 2^31, which every case above respects.
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.less {
			t.Errorf("Less(%#x, %#x) = %v, want %v", c.a, c.b, got, c.less)
		}
		if c.a != c.b {
			if Less(c.a, c.b) == Less(c.b, c.a) {
				t.Errorf("Less not antisymmetric at %#x, %#x", c.a, c.b)
			}
		}
		if got := LessEq(c.a, c.b); got != (c.less || c.a == c.b) {
			t.Errorf("LessEq(%#x, %#x) = %v", c.a, c.b, got)
		}
	}
}

// TestLessProperty: for random base points anywhere in the space —
// including straddling the wrap — every step d in (0, 2^31) orders
// forward and Diff recovers it.
func TestLessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		a := uint32(rng.Uint64())
		d := uint32(rng.Int63n(1<<31-1) + 1)
		b := a + d // modular
		if !Less(a, b) {
			t.Fatalf("Less(%#x, %#x) false for step %d", a, b, d)
		}
		if Less(b, a) {
			t.Fatalf("Less(%#x, %#x) true backwards for step %d", b, a, d)
		}
		if got := Diff(b, a); got != int32(d) {
			t.Fatalf("Diff(%#x, %#x) = %d, want %d", b, a, got, d)
		}
	}
}

// TestUnwrapperMonotonicAcrossWrap walks a stream that starts near
// 2^32−1 and crosses the wrap several times; offsets must grow
// strictly and keep the wire value in the low 32 bits.
func TestUnwrapperMonotonicAcrossWrap(t *testing.T) {
	var u Unwrapper
	start := uint32(0xFFFFFC00) // 1 KiB short of the wrap
	if got := u.Unwrap(start); got != Expand(start) {
		t.Fatalf("first Unwrap = %#x, want Expand = %#x", got, Expand(start))
	}
	prev := Expand(start)
	seq := start
	for i := 0; i < 10_000_000; i += 1460 {
		seq += 1460 // wraps repeatedly
		off := u.Unwrap(seq)
		if off <= prev {
			t.Fatalf("offset not monotonic at step %d: %#x then %#x", i, prev, off)
		}
		if off-prev != 1460 {
			t.Fatalf("offset step = %d, want 1460", off-prev)
		}
		if uint32(off) != seq {
			t.Fatalf("low bits lost: off=%#x seq=%#x", off, seq)
		}
		prev = off
	}
}

// TestUnwrapperBackwardStable: values behind the reference (old ACKs,
// DSACK edges, the zero-window probe at snd_una−1) resolve to the
// offsets they had before, and never advance the reference.
func TestUnwrapperBackwardStable(t *testing.T) {
	var u Unwrapper
	isn := uint32(0xFFFFFFF0)
	base := u.Unwrap(isn)

	// Advance past the wrap.
	ahead := u.Unwrap(isn + 50_000)
	if ahead != base+50_000 {
		t.Fatalf("forward unwrap = %#x, want %#x", ahead, base+50_000)
	}
	// A probe one byte below the base must come out one below, not
	// 2^32−1 above.
	if got := u.Unwrap(isn - 1); got != base-1 {
		t.Errorf("Unwrap(isn-1) = %#x, want %#x", got, base-1)
	}
	// Re-unwrapping an old value is stable.
	if got := u.Unwrap(isn + 1000); got != base+1000 {
		t.Errorf("old value moved: %#x want %#x", got, base+1000)
	}
	// And the reference did not regress: forward still works.
	if got := u.Unwrap(isn + 50_001); got != base+50_001 {
		t.Errorf("reference regressed: %#x want %#x", got, base+50_001)
	}
}

// TestUnwrapperNoUnderflow: even a maximal backward step from the
// initial reference stays above zero thanks to the epoch bias, so
// hostile input cannot underflow offsets into huge positives.
func TestUnwrapperNoUnderflow(t *testing.T) {
	var u Unwrapper
	u.Unwrap(0)
	off := u.Unwrap(1 << 31) // d = −2^31 … or +2^31? int32(2^31) = −2^31
	if off != Expand(0)-(1<<31) {
		t.Fatalf("backward half-space = %#x", off)
	}
	if off > Expand(0) {
		t.Fatal("backward step moved forward")
	}
}

// TestUnwrapperRandomWalk: random in-window forward steps with
// occasional backward references mimic a real flow (data advancing,
// ACK/SACK edges trailing); the unwrapped order must match the
// modular order against the running maximum.
func TestUnwrapperRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var u Unwrapper
	seq := uint32(rng.Uint64())
	off := u.Unwrap(seq)
	for i := 0; i < 100_000; i++ {
		if rng.Intn(4) == 0 {
			// Look back up to 64 KiB (an old ACK).
			back := uint32(rng.Intn(65536))
			got := u.Unwrap(seq - back)
			if got != off-uint64(back) {
				t.Fatalf("backward ref wrong at step %d: got %#x want %#x", i, got, off-uint64(back))
			}
			continue
		}
		step := uint32(rng.Intn(65536))
		seq += step
		got := u.Unwrap(seq)
		if got != off+uint64(step) {
			t.Fatalf("forward step wrong at %d: got %#x want %#x", i, got, off+uint64(step))
		}
		off = got
	}
}
