package main

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"tcpstall/internal/trace"
)

const goldenPcap = "../../internal/core/testdata/golden_network.pcap"

// goldenEvents is what a direct import of the capture yields — the
// reference replayPcap must deliver, in order.
func goldenEvents(t *testing.T) []trace.RecordEvent {
	t.Helper()
	f, err := os.Open(goldenPcap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ref []trace.RecordEvent
	if err := trace.ImportPcapRecords(f, trace.ImportConfig{ServerPort: 80}, func(ev trace.RecordEvent) error {
		ref = append(ref, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ref) <= replayChunk {
		t.Fatalf("capture has %d records, want more than one chunk", len(ref))
	}
	return ref
}

// recorder is an ingest function that keeps what it was handed (the
// replay reuses its buffer, so chunks are copied).
type recorder struct {
	got    []trace.RecordEvent
	chunks []int
}

func (r *recorder) ingest(evs []trace.RecordEvent) {
	r.got = append(r.got, evs...)
	r.chunks = append(r.chunks, len(evs))
}

func TestReplayPcapUnpacedChunks(t *testing.T) {
	ref := goldenEvents(t)
	var rec recorder
	noSleep := func(context.Context, time.Duration) error {
		t.Error("unpaced replay slept")
		return nil
	}
	if err := replayPcap(context.Background(), goldenPcap, 80, 0, noSleep, rec.ingest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.got, ref) {
		t.Fatalf("replay delivered %d events, direct import %d, or they differ", len(rec.got), len(ref))
	}
	var want []int
	for n := len(ref); n > 0; n -= replayChunk {
		want = append(want, min(n, replayChunk))
	}
	if !reflect.DeepEqual(rec.chunks, want) {
		t.Errorf("chunk sizes = %v, want %v (full chunks, then the final partial one)", rec.chunks, want)
	}
}

// slowdown stretches the capture so far (1 µs of capture = 10 s of
// wall clock) that every record after time zero is due in the future
// however long the test takes: with a sleep that returns at once, the
// replay must ask to sleep before each of them.
const slowdown = 1e-7

func TestReplayPcapFlushesBeforeEverySleep(t *testing.T) {
	ref := goldenEvents(t)
	var rec recorder
	var deliveredAtSleep []int
	sleep := func(_ context.Context, d time.Duration) error {
		if d <= 0 {
			t.Errorf("asked to sleep %v", d)
		}
		deliveredAtSleep = append(deliveredAtSleep, len(rec.got))
		return nil
	}
	if err := replayPcap(context.Background(), goldenPcap, 80, slowdown, sleep, rec.ingest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.got, ref) {
		t.Fatalf("paced replay delivered %d events, direct import %d, or they differ", len(rec.got), len(ref))
	}
	// The replay sleeps before record i exactly when i is not yet due;
	// by then records 0..i-1 must all have been handed over.
	var want []int
	for i, ev := range ref {
		if ev.Rec.T > 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(deliveredAtSleep, want) {
		t.Errorf("records delivered at each sleep = %v\nwant %v: a record waited across a pacing sleep", deliveredAtSleep, want)
	}
}

func TestReplayPcapCancelFlushesBuffer(t *testing.T) {
	ref := goldenEvents(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec recorder
	sleeps, paced := 0, 0
	// The fifth sleep "wakes" to a cancelled context: the record it was
	// pacing (everything before it is already delivered) is buffered,
	// and the next one finds the context done.
	sleep := func(context.Context, time.Duration) error {
		if sleeps++; sleeps == 5 {
			paced = len(rec.got)
			cancel()
		}
		return nil
	}
	err := replayPcap(ctx, goldenPcap, 80, slowdown, sleep, rec.ingest)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sleeps != 5 {
		t.Fatalf("replay went on after cancellation: %d sleeps", sleeps)
	}
	if !reflect.DeepEqual(rec.got, ref[:paced+1]) {
		t.Errorf("delivered %d events, want the %d read before cancellation (buffered one included)", len(rec.got), paced+1)
	}
}
