package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// tracer records the traced rep: one batchRec per intake call, written
// by the source as it goes, plus the few spans that are not per batch.
// Everything stays in memory until the rep is over; spans are derived
// from the records when the file is written.
type tracer struct {
	reader   *timedReader // capture workloads only
	batches  []batchRec
	spans    []namedSpan
	verdicts []verdictPoint
}

// batchRec is one intake call and the source's work leading up to it.
// The batch's trace starts where the previous batch ended.
type batchRec struct {
	lo, hi  int   // record range [lo, hi) the batch carries
	handAt  int64 // IngestBatch called
	end     int64 // IngestBatch returned
	pushEnd int64 // fleet_push: the push that followed returned
	readNS  int64 // inside file reads since the previous batch
	waitNS  int64 // paced: waiting for due times since the previous batch
}

type namedSpan struct {
	name       string
	start, end int64
}

type verdictPoint struct {
	at  int64
	pos int // global position of the closing record
}

// newTracer sizes the batch log up front so that appending to it
// never copies mid-rep: a paced source may make a batch per record.
func newTracer(in *input, paced bool) *tracer {
	batches := in.records/replayChunk + len(in.schedule) + 1
	if paced {
		batches = in.records
	}
	t := &tracer{batches: make([]batchRec, 0, batches)}
	if in.path != "" {
		t.reader = &timedReader{}
	}
	return t
}

func (t *tracer) batch(b batchRec) {
	if t.reader != nil {
		b.readNS = t.reader.ns - t.reader.taken
		t.reader.taken = t.reader.ns
	}
	t.batches = append(t.batches, b)
}

func (t *tracer) span(name string, start, end int64) {
	t.spans = append(t.spans, namedSpan{name, start, end})
}

func (t *tracer) verdict(at int64, pos int) {
	t.verdicts = append(t.verdicts, verdictPoint{at, pos})
}

// batchOf finds the batch that carried record pos.
func (t *tracer) batchOf(pos int) int {
	return sort.Search(len(t.batches), func(i int) bool { return t.batches[i].hi > pos })
}

// sums adds up the source thread's self times over all batches: file
// reads, the importer's own work (the stretch between two intake
// calls minus reads and pacer waits), and intake.
func (t *tracer) sums() (readNS, importNS, intakeNS int64) {
	prev := int64(0)
	for _, b := range t.batches {
		readNS += b.readNS
		importNS += b.handAt - prev - b.readNS - b.waitNS
		intakeNS += b.end - b.handAt
		prev = max(b.end, b.pushEnd)
	}
	return
}

// timedReader passes the capture file through to the importer while
// counting every Read and timing one in readStride of them, which is
// where pcap's cost shows: the importer's reads are the system calls.
// Timing every read costs four clock readings a record, about a tenth
// of the source's whole path; one read in five (an odd stride, so the
// importer's alternating header and body reads are sampled alike)
// costs a fiftieth and still times 100k reads a rep.
type timedReader struct {
	f     *os.File
	ns    int64 // estimated: sampled time × readStride
	taken int64 // ns already charged to a batch
	calls int64
	bytes int64
}

const readStride = 5

func (r *timedReader) Read(p []byte) (int, error) {
	r.calls++
	if r.calls%readStride != 0 {
		n, err := r.f.Read(p)
		r.bytes += int64(n)
		return n, err
	}
	t := time.Now()
	n, err := r.f.Read(p)
	r.ns += int64(time.Since(t)) * readStride
	r.bytes += int64(n)
	return n, err
}

// spanLine is one line of the trace file. Spans of one batch share its
// trace ID; self_ns is the span's duration minus what its children
// cover.
type spanLine struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
	RecLo   int    `json:"rec_lo,omitempty"`
	RecHi   int    `json:"rec_hi,omitempty"`
}

// maxTracedBatches bounds the trace file: the paced workload makes a
// batch per record or two, a quarter of a million a rep.
const maxTracedBatches = 4096

// write renders the trace as JSON lines. Every batch that carried a
// verdict's closing record is written, and of the rest one in every
// len/maxTracedBatches.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)

	verdictsOf := map[int][]verdictPoint{}
	for _, v := range t.verdicts {
		b := t.batchOf(v.pos)
		verdictsOf[b] = append(verdictsOf[b], v)
	}
	stride := len(t.batches)/maxTracedBatches + 1
	id := 0
	emit := func(l spanLine) int {
		id++
		l.Span = id
		if err == nil {
			err = enc.Encode(l)
		}
		return id
	}
	prev := int64(0)
	for i, b := range t.batches {
		start := prev
		prev = max(b.end, b.pushEnd)
		if i%stride != 0 && verdictsOf[i] == nil {
			continue
		}
		trace := i + 1
		root := emit(spanLine{Trace: trace, Name: "batch", StartNS: start, DurNS: prev - start, RecLo: b.lo, RecHi: b.hi})
		if t.reader != nil {
			imp := emit(spanLine{Trace: trace, Parent: root, Name: "trace.import", StartNS: start,
				DurNS: b.handAt - start, SelfNS: b.handAt - start - b.readNS - b.waitNS})
			emit(spanLine{Trace: trace, Parent: imp, Name: "source.read", StartNS: start, DurNS: b.readNS, SelfNS: b.readNS})
			if b.waitNS > 0 {
				emit(spanLine{Trace: trace, Parent: imp, Name: "pacer.wait", StartNS: start, DurNS: b.waitNS, SelfNS: b.waitNS})
			}
		}
		emit(spanLine{Trace: trace, Parent: root, Name: "fleet.member.ingest", StartNS: b.handAt, DurNS: b.end - b.handAt, SelfNS: b.end - b.handAt})
		if b.pushEnd > 0 {
			emit(spanLine{Trace: trace, Parent: root, Name: "fleet.member.push", StartNS: b.end, DurNS: b.pushEnd - b.end, SelfNS: b.pushEnd - b.end})
		}
		for _, v := range verdictsOf[i] {
			emit(spanLine{Trace: trace, Parent: root, Name: "verdict", StartNS: v.at, RecLo: v.pos, RecHi: v.pos + 1})
		}
	}
	for _, s := range t.spans {
		emit(spanLine{Name: s.name, StartNS: s.start, DurNS: s.end - s.start, SelfNS: s.end - s.start})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gcCPUSeconds is the CPU the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
