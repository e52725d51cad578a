package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// A /fleet/push body is one Snapshot in this encoding. Its fields
// follow in declaration order, embedded structs inline:
//
//	unsigned  uvarint; a uint32 (FlowHash) must fit in 32 bits
//	signed    zigzag varint (int, int64, time.Duration)
//	bool      one byte, 0 or 1
//	float64   uvarint of its IEEE-754 bits with the bytes reversed, as
//	          gob does, so a whole number takes two or three bytes;
//	          NaN and ±Inf, which JSON could not carry, do not decode
//	string    uvarint length, then the bytes
//	list      uvarint length, then the elements
//	map       uvarint length, then key–value pairs in strictly
//	          ascending key order, which is the order MarshalBinary
//	          writes
//
// The version comes first, so a body of any other version fails
// before its layout is guessed at: a v5 member's JSON starts with '{',
// which reads as version 123. The decoder reads untrusted input: it
// checks every length against the bytes left before allocating, and
// refuses trailing bytes. What the values mean — cell order, the
// histogram layout, the batch summary's sum — is checked where a
// snapshot from any source is, in Head.Push and Counters.Merge.
// Registration, push responses and every read endpoint stay JSON.

// MarshalBinary encodes s as a /fleet/push body. It fails only when
// s.Version is not WireVersion, the one layout it writes.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if s.Version != WireVersion {
		return nil, fmt.Errorf("fleet: encode snapshot: version %d, the codec writes v%d", s.Version, WireVersion)
	}
	// A capacity that holds a typical snapshot in one allocation.
	e := encoder(make([]byte, 0, 256+32*(len(s.Stalls)+len(s.Retrans))+64*len(s.Events)))
	e.uvarint(WireVersion)
	e.string(s.MemberID)
	e.uvarint(s.Epoch)
	e.uvarint(s.Seq)
	e.bool(s.Final)
	e.varint(int64(s.ActiveFlows))
	e.varint(int64(s.PromotedFlows))
	e.varint(int64(s.ParkedFlows))

	c := &s.Counters
	e.uvarint(c.Ingested)
	e.uvarint(c.RingDrops)
	e.uvarint(c.RecordsFed)
	e.uvarint(c.RecordCapDrops)
	e.uvarint(c.FlowsSeen)
	e.counts(c.FlowsEvicted)
	e.uvarint(c.FlowsTruncated)
	e.uvarint(c.TriageFastRecords)
	e.counts(c.TriagePromotions)
	e.uvarint(c.TriageRepromotions)
	e.uvarint(c.TriageDemotions)
	e.uvarint(c.TriageTruncatedPromotions)
	e.uvarint(uint64(len(c.Stalls)))
	for i := range c.Stalls {
		sc := &c.Stalls[i]
		e.string(sc.Service)
		e.string(sc.Cause)
		e.uvarint(sc.Count)
		e.varint(int64(sc.Time))
	}
	e.uvarint(uint64(len(c.Retrans)))
	for i := range c.Retrans {
		rc := &c.Retrans[i]
		e.string(rc.Subcause)
		e.uvarint(rc.Count)
		e.varint(int64(rc.Time))
	}
	h := &c.DurationsMS
	e.uvarint(uint64(len(h.Bounds)))
	for _, b := range h.Bounds {
		e.float(b)
	}
	e.uvarint(uint64(len(h.Counts)))
	for _, n := range h.Counts {
		e.uvarint(n)
	}
	e.varint(h.SumNS)
	b := &c.IngestBatchSizes
	e.varint(int64(b.N))
	e.float(b.Sum)
	e.float(b.Min)
	e.float(b.Max)

	e.uvarint(uint64(len(s.Events)))
	for i := range s.Events {
		ev := &s.Events[i]
		e.varint(ev.TimeMS)
		e.string(ev.Service)
		e.uvarint(uint64(ev.FlowHash))
		st := &ev.StallJSON
		e.varint(int64(st.ID))
		e.float(st.StartS)
		e.float(st.EndS)
		e.float(st.DurationMS)
		e.string(st.Cause)
		e.string(st.SubCause)
		e.string(st.DoubleKind)
		e.string(st.Category)
		e.string(st.CaState)
		e.varint(int64(st.InFlight))
		e.varint(int64(st.Rwnd))
	}
	e.uvarint(s.EventsDropped)
	return e, nil
}

// UnmarshalBinary decodes a /fleet/push body into s. On error s is
// unchanged.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := decoder{b: data, n: len(data)}
	if v := d.uvarint(); d.err == nil && v != WireVersion {
		return fmt.Errorf("fleet: decode snapshot: wire v%d, want v%d", v, WireVersion)
	}
	out := Snapshot{Version: WireVersion}
	out.MemberID = d.string()
	out.Epoch = d.uvarint()
	out.Seq = d.uvarint()
	out.Final = d.bool()
	out.ActiveFlows = d.int()
	out.PromotedFlows = d.int()
	out.ParkedFlows = d.int()

	c := &out.Counters
	c.Ingested = d.uvarint()
	c.RingDrops = d.uvarint()
	c.RecordsFed = d.uvarint()
	c.RecordCapDrops = d.uvarint()
	c.FlowsSeen = d.uvarint()
	c.FlowsEvicted = d.counts()
	c.FlowsTruncated = d.uvarint()
	c.TriageFastRecords = d.uvarint()
	c.TriagePromotions = d.counts()
	c.TriageRepromotions = d.uvarint()
	c.TriageDemotions = d.uvarint()
	c.TriageTruncatedPromotions = d.uvarint()
	c.Stalls = list(&d, 4, func(sc *StallCounter) {
		sc.Service = d.string()
		sc.Cause = d.string()
		sc.Count = d.uvarint()
		sc.Time = time.Duration(d.varint())
	})
	c.Retrans = list(&d, 3, func(rc *RetransCounter) {
		rc.Subcause = d.string()
		rc.Count = d.uvarint()
		rc.Time = time.Duration(d.varint())
	})
	h := &c.DurationsMS
	h.Bounds = list(&d, 1, func(b *float64) { *b = d.float() })
	h.Counts = list(&d, 1, func(n *uint64) { *n = d.uvarint() })
	h.SumNS = d.varint()
	b := &c.IngestBatchSizes
	b.N = d.int()
	b.Sum = d.float()
	b.Min = d.float()
	b.Max = d.float()

	out.Events = list(&d, 14, func(ev *StallEvent) {
		ev.TimeMS = d.varint()
		ev.Service = d.string()
		if fh := d.uvarint(); fh <= math.MaxUint32 {
			ev.FlowHash = uint32(fh)
		} else {
			d.fail("flow hash %d exceeds 32 bits", fh)
		}
		st := &ev.StallJSON
		st.ID = d.int()
		st.StartS = d.float()
		st.EndS = d.float()
		st.DurationMS = d.float()
		st.Cause = d.string()
		st.SubCause = d.string()
		st.DoubleKind = d.string()
		st.Category = d.string()
		st.CaState = d.string()
		st.InFlight = d.int()
		st.Rwnd = d.int()
	})
	out.EventsDropped = d.uvarint()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("fleet: decode snapshot: %w", d.err)
	}
	*s = out
	return nil
}

// encoder appends a snapshot's values.
type encoder []byte

func (e *encoder) uvarint(x uint64) { *e = binary.AppendUvarint(*e, x) }
func (e *encoder) varint(x int64)   { *e = binary.AppendVarint(*e, x) }

func (e *encoder) bool(x bool) {
	var b byte
	if x {
		b = 1
	}
	*e = append(*e, b)
}

func (e *encoder) float(x float64) { e.uvarint(bits.ReverseBytes64(math.Float64bits(x))) }

func (e *encoder) string(x string) {
	e.uvarint(uint64(len(x)))
	*e = append(*e, x...)
}

// counts writes a map in ascending key order.
func (e *encoder) counts(m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.string(k)
		e.uvarint(m[k])
	}
}

// decoder reads a snapshot's values front to back. The first error
// sticks: every later read returns a zero value, so a decode runs
// straight through and checks err once at the end.
type decoder struct {
	b   []byte // the bytes left
	n   int    // the body's length, to report offsets
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("at byte %d: %s", d.n-len(d.b), fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) int() int {
	x := d.varint()
	if int64(int(x)) != x {
		d.fail("%d overflows int", x)
		return 0
	}
	return int(x)
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("not a bool")
		return false
	}
	x := d.b[0] == 1
	d.b = d.b[1:]
	return x
}

func (d *decoder) float() float64 {
	x := math.Float64frombits(bits.ReverseBytes64(d.uvarint()))
	if math.IsNaN(x) || math.IsInf(x, 0) {
		d.fail("non-finite float %v", x)
		return 0
	}
	return x
}

// count reads a length of elements that take at least size bytes
// each, and refuses one the bytes left cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	x := string(d.b[:n])
	d.b = d.b[n:]
	return x
}

// counts reads a map whose keys must ascend strictly; nil when empty.
func (d *decoder) counts() map[string]uint64 {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.string()
		if i > 0 && k <= prev {
			d.fail("map key %q does not ascend from %q", k, prev)
		}
		m[k] = d.uvarint()
		prev = k
	}
	return m
}

// list reads a list whose elements take at least size bytes each,
// decoding each in place with elem; nil when empty.
func list[T any](d *decoder, size int, elem func(*T)) []T {
	n := d.count(size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n && d.err == nil; i++ {
		elem(&out[i])
	}
	return out
}
