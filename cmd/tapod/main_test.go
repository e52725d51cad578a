package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/live"
	"tcpstall/internal/pcap"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
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
	if err := trace.ImportPcapRecords(f, trace.ImportConfig{}, func(ev trace.RecordEvent) error {
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
	if err := replayPcap(context.Background(), goldenPcap, trace.ImportConfig{}, 0, noSleep, rec.ingest); err != nil {
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
	if err := replayPcap(context.Background(), goldenPcap, trace.ImportConfig{}, slowdown, sleep, rec.ingest); err != nil {
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
	err := replayPcap(ctx, goldenPcap, trace.ImportConfig{}, slowdown, sleep, rec.ingest)
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

// TestReplayStdinFlushesBeforeWaiting: with -pcap -, the records read
// so far are handed over before the replay waits on the pipe for
// more, so a quiet live capture holds no record back.
func TestReplayStdinFlushesBeforeWaiting(t *testing.T) {
	ref := goldenEvents(t)
	data, err := os.ReadFile(goldenPcap)
	if err != nil {
		t.Fatal(err)
	}
	const first = 10
	cut := 24 // the file header, then first records
	for i := 0; i < first; i++ {
		cut += 16 + int(binary.LittleEndian.Uint32(data[cut+8:]))
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	stdin := os.Stdin
	os.Stdin = pr
	defer func() { os.Stdin = stdin }()

	var rec recorder
	delivered := make(chan int, len(ref))
	done := make(chan error, 1)
	go func() {
		done <- replayPcap(context.Background(), "-", trace.ImportConfig{}, 0, sleepCtx, func(evs []trace.RecordEvent) {
			rec.ingest(evs)
			delivered <- len(rec.got)
		})
	}()
	if _, err := pw.Write(data[:cut]); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < first; {
		select {
		case n = <-delivered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of the %d records written were handed over while the pipe was idle", n, first)
		}
	}
	if _, err := pw.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.got, ref) {
		t.Fatalf("replay from a pipe delivered %d events, direct import %d, or they differ", len(rec.got), len(ref))
	}
}

// twoServiceCapture exports a web-search and a cloud-storage workload
// on server ports 80 and 8080 and merges the two captures by
// timestamp. Flow i of each export has the same client endpoint, so
// the capture also holds one client talking to both ports.
func twoServiceCapture(t *testing.T) []byte {
	t.Helper()
	var pkts []pcap.Packet
	var hdr pcap.Header
	for _, svc := range []struct {
		svc  workload.Service
		port uint16
	}{{workload.WebSearch(), 80}, {workload.CloudStorage(), 8080}} {
		var flows []*trace.Flow
		for _, r := range workload.Generate(svc.svc, 3, workload.GenOptions{Flows: 12}) {
			flows = append(flows, r.Flow)
		}
		var buf bytes.Buffer
		if err := trace.ExportPcap(&buf, flows, trace.ExportConfig{ServerPort: svc.port, Snaplen: 96}); err != nil {
			t.Fatal(err)
		}
		r, err := pcap.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		hdr = r.Header()
		p, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p...)
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	var out bytes.Buffer
	w, err := pcap.NewWriterHeader(&out, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestReplayLabelsServicesByPort: replaying a two-service capture
// under a port map gives the monitor the same per-service stall counts
// as analysing each imported flow on its own.
func TestReplayLabelsServicesByPort(t *testing.T) {
	data := twoServiceCapture(t)
	path := filepath.Join(t.TempDir(), "two.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ports, err := trace.ParsePorts("80=web-search,8080=cloud-storage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.ImportConfig{Ports: ports}

	flows, err := trace.ImportPcap(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[live.CauseKey]uint64{}
	for _, f := range flows {
		for _, st := range core.Analyze(f, core.DefaultConfig()).Stalls {
			want[live.CauseKey{Service: f.Service, Cause: st.Cause}]++
		}
	}

	m := live.New(live.Config{MaxRecordsPerFlow: -1})
	m.Start()
	if err := replayPcap(context.Background(), path, cfg, 0, sleepCtx, func(evs []trace.RecordEvent) { m.IngestBatchWait(evs) }); err != nil {
		t.Fatal(err)
	}
	m.Close()
	got := m.Snapshot().StallCount
	if !reflect.DeepEqual(got, want) {
		t.Errorf("monitor stall counts %v\nwant %v", got, want)
	}
	perService := map[string]uint64{}
	for k, n := range got {
		perService[k.Service] += n
	}
	if len(perService) != 2 || perService["web-search"] == 0 || perService["cloud-storage"] == 0 {
		t.Errorf("stalls per service = %v, want both services to stall", perService)
	}
}

// TestUsageErrors runs main in a child process with a bad command line
// and expects exit status 2 before anything is served.
func TestUsageErrors(t *testing.T) {
	if args, ok := os.LookupEnv("TAPOD_TEST_ARGS"); ok {
		os.Args = append([]string{"tapod", "-listen", "127.0.0.1:0"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"",                                     // no -pcap
		"-pcap " + goldenPcap + " -port 0",     // port 0
		"-pcap " + goldenPcap + " -port 65616", // would wrap to 80 as a uint16
		"-pcap " + goldenPcap + " -port 80=",   // empty service name
		"-pcap " + goldenPcap + " -port 80,80", // duplicate port
		"-pcap " + goldenPcap + " -triage on",  // "on" is a stray argument
		"-pcap " + goldenPcap + " -tau NaN",    // τ·SRTT is no duration
		"-pcap " + goldenPcap + " -tau +Inf",   // τ·SRTT overflows a time.Duration
		"-pcap " + goldenPcap + " -tau 1e300",  // likewise
		"-pcap " + goldenPcap + " -tau 0",      // would silently run at τ = 2
		"-pcap " + goldenPcap + " -tau -1",     // likewise
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrors$")
		cmd.Env = append(os.Environ(), "TAPOD_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("tapod %s: err = %v, want exit status 2\n%s", args, err, out)
		}
	}
}
