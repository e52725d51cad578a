package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/pcap"
	"tcpstall/internal/pipeline"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

// Intake batch sizes: closed-loop capture replay hands chunks of
// replayChunk records; fleet_push hands pushChunk events before each
// timed push.
const (
	replayChunk = 512
	pushChunk   = 64
)

// sizes fixes how much work one rep does. Work is counted in records
// and pushes, never in seconds, so every count repeats exactly for a
// seed.
type sizes struct {
	sickFlows    int     // flows per service on replay_sick and paced_sick
	healthyFlows int     // healthy flows per service on replay_healthy, plus 1/32 as many sick ones
	records      int     // packets kept of a capture: the file is cut there, like tcpdump -c
	pacedRate    float64 // records per second offered on paced_sick
	members      int     // fleet_push members
	memberFlows  int     // flows each fleet_push member carries
	minReps      int     // measured reps an end-to-end run makes at least, however short --seconds is
	tracedPairs  int     // untraced/traced rep pairs a traced run makes
	// setUpBudget is how long an end-to-end run goes on repeating its
	// set-up beyond the third time.
	setUpBudget time.Duration
}

// fullSize is about a fifth of what ISSUE 11 sketched (600 and 1200
// flows per service, 1.5M records): the driver's time cap leaves under
// half a minute per run including three set-ups, set-up costs about
// 7 µs per record, and on a noisy box many short reps steady a run
// better than a few long ones. README.md has the arithmetic.
var (
	fullSize  = sizes{sickFlows: 120, healthyFlows: 280, records: 240_000, pacedRate: 150_000, members: 32, memberFlows: 8, minReps: 5, tracedPairs: 5, setUpBudget: 3500 * time.Millisecond}
	smokeSize = sizes{sickFlows: 12, healthyFlows: 24, records: 8_000, pacedRate: 40_000, members: 4, memberFlows: 2, minReps: 2, tracedPairs: 1}
)

// spec is one workload: which input it builds and how the monitor
// under it is configured. live.Config is the zero value plus only
// what config states.
type spec struct {
	name    string
	why     string
	healthy bool // replay_healthy's mix instead of the Table-1 mix
	paced   bool // open loop at sizes.pacedRate
	fleet   bool // many members, pushes are the operation
	config  func() live.Config
}

var specs = []spec{
	{
		name: "replay_sick",
		why:  "stall-rich Table-1 mix, always-on analysis: core+flight on the shards do most of the work",
		config: func() live.Config {
			return live.Config{Flight: &flight.Config{}}
		},
	},
	{
		name:    "replay_healthy",
		why:     "healthy flows plus 1/32 sick, triage on: file read and decode dominate, core does almost nothing",
		healthy: true,
		config: func() live.Config {
			return live.Config{Flight: &flight.Config{}, Triage: &triage.Config{}}
		},
	},
	{
		name:  "paced_sick",
		why:   "open loop at a fixed rate below capacity: tiny batches, idle shards, latency instead of throughput",
		paced: true,
		config: func() live.Config {
			return live.Config{Flight: &flight.Config{}}
		},
	},
	{
		name:  "fleet_push",
		why:   "32 members push to one head after every 64 events: snapshot, JSON, HTTP and head merge dominate",
		fleet: true,
		config: func() live.Config {
			return live.Config{Shards: 1}
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// slot is one intake call of fleet_push: member's events [lo, hi).
type slot struct {
	member int
	lo, hi int
}

// input is everything a rep reads, built once per run from the seed.
type input struct {
	// path is the capture file the replay and paced workloads read;
	// empty on fleet_push.
	path    string
	records int
	flows   int
	// stalls is the reference: per-cause stall counts from the batch
	// analyzer (pipeline.Run) over the same input.
	stalls map[string]uint64
	// index maps, per member, a flow ID to the global positions of its
	// records in hand-over order, so a verdict's closing record
	// (LiveStall.FlowID + Stall.EndRecIdx) can be traced back to the
	// moment the source handed it over.
	index []map[string][]int32
	// fleet_push only: each member's events in emission order, the
	// round-robin schedule over them, and the flows behind the
	// reference (the capture workloads re-import theirs from the file).
	events   [][]trace.RecordEvent
	schedule []slot
	refFlows []*trace.Flow
}

// setUp builds the workload's input under dir.
func setUp(w spec, seed int64, sz sizes, dir string) (*input, error) {
	if w.fleet {
		return setUpFleet(seed, sz)
	}
	return setUpCapture(w, seed, sz, dir)
}

// setUpCapture generates traffic, writes it as a capture file the way
// tracegen would, and derives the reference and the record index from
// the file — not from the generated flows — so both see exactly what
// the chain will see (16-bit windows, millisecond timestamps).
func setUpCapture(w spec, seed int64, sz sizes, dir string) (*input, error) {
	var flows []*trace.Flow
	add := func(svc workload.Service, seed int64, n int) {
		for _, fr := range workload.Generate(svc, seed, workload.GenOptions{Flows: n}) {
			if len(fr.Flow.Records) > 0 {
				flows = append(flows, fr.Flow)
			}
		}
	}
	for i, svc := range workload.Services() {
		if w.healthy {
			add(workload.Healthy(svc), seed+int64(i), sz.healthyFlows)
			add(svc, seed+100+int64(i), max(sz.healthyFlows/32, 1))
		} else {
			add(svc, seed+int64(i), sz.sickFlows)
		}
	}

	in := &input{path: filepath.Join(dir, w.name+".pcap"), flows: len(flows)}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = trace.ExportPcap(bw, flows, trace.ExportConfig{Snaplen: 96})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = truncateCapture(in.path, sz.records)
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", in.path, err)
	}

	// Set-up reads the file through a buffer: these passes are not
	// the measured path, and the file content is what matters.
	err = withCapture(in.path, func(f *os.File) error {
		res, err := pipeline.Run(pipeline.FromPcap(bufio.NewReader(f), trace.ImportConfig{}), pipeline.Options{})
		if err != nil {
			return err
		}
		in.stalls = map[string]uint64{}
		for c, n := range res.Report.CountByCause {
			if n > 0 {
				in.stalls[c.String()] = uint64(n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	in.index = []map[string][]int32{{}}
	err = withCapture(in.path, func(f *os.File) error {
		return trace.ImportPcapRecords(bufio.NewReader(f), trace.ImportConfig{}, func(ev trace.RecordEvent) error {
			in.index[0][ev.FlowID] = append(in.index[0][ev.FlowID], int32(in.records))
			in.records++
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("index pre-pass: %w", err)
	}
	return in, nil
}

// truncateCapture keeps the file's first n packets. How many packets a
// seed's flows add up to varies by a tenth either way; cutting every
// capture at the same count makes a rep the same amount of work for
// every seed. The flows all start at time zero, so the cut drops the
// tail in which only the longest flows are still sending.
func truncateCapture(path string, n int) error {
	var keep int64
	err := withCapture(path, func(f *os.File) error {
		cr := &countingReader{r: bufio.NewReader(f)}
		pr, err := pcap.NewReader(cr)
		for i := 0; i < n && err == nil; i++ {
			_, err = pr.ReadPacket()
		}
		keep = cr.n
		if err == io.EOF {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	return os.Truncate(path, keep)
}

// countingReader counts the bytes its consumer has taken.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// withCapture runs fn over the opened capture file.
func withCapture(path string, fn func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// setUpFleet collects every member's events from workload.Stream and
// the reference from workload.Generate, which produces the same flows
// bit for bit.
func setUpFleet(seed int64, sz sizes) (*input, error) {
	in := &input{stalls: map[string]uint64{}}
	services := workload.Services()
	for i := 0; i < sz.members; i++ {
		svc := services[i%len(services)]
		var evs []trace.RecordEvent
		workload.Stream(context.Background(), svc, seed+int64(i),
			workload.StreamOptions{Flows: sz.memberFlows, Concurrency: 1},
			func(ev trace.RecordEvent) { evs = append(evs, ev) })
		in.events = append(in.events, evs)
		in.records += len(evs)

		results := workload.Generate(svc, seed+int64(i), workload.GenOptions{Flows: sz.memberFlows})
		res, err := pipeline.Run(pipeline.FromResults(results), pipeline.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		for c, n := range res.Report.CountByCause {
			if n > 0 {
				in.stalls[c.String()] += uint64(n)
			}
		}
		for _, fr := range results {
			if len(fr.Flow.Records) > 0 {
				in.refFlows = append(in.refFlows, fr.Flow)
			}
		}
	}
	in.flows = len(in.refFlows)

	// Round-robin: one chunk from each member that still has events,
	// until all are exhausted. A record's global position is its place
	// in this hand-over order.
	in.index = make([]map[string][]int32, sz.members)
	for i := range in.index {
		in.index[i] = map[string][]int32{}
	}
	pos := 0
	for lo := 0; pos < in.records; lo += pushChunk {
		for m, evs := range in.events {
			if lo >= len(evs) {
				continue
			}
			hi := min(lo+pushChunk, len(evs))
			in.schedule = append(in.schedule, slot{member: m, lo: lo, hi: hi})
			for _, ev := range evs[lo:hi] {
				in.index[m][ev.FlowID] = append(in.index[m][ev.FlowID], int32(pos))
				pos++
			}
		}
	}
	return in, nil
}

// operations is what one rep attempts: pushes on fleet_push, records
// elsewhere.
func (in *input) operations(w spec) int {
	if w.fleet {
		return len(in.schedule)
	}
	return in.records
}
