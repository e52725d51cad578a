package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/explain"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/packet"
	"tcpstall/internal/pcap"
	"tcpstall/internal/trace"
)

const goldenDir = "../../internal/core/testdata/"

// capture hand-builds an Ethernet/IPv4/TCP pcap between one server on
// port 80 and clients that all use the same source port.
type capture struct {
	t   *testing.T
	buf bytes.Buffer
	pw  *pcap.Writer
	now time.Time
}

func newCapture(t *testing.T) *capture {
	c := &capture{t: t, now: time.Date(2014, 12, 22, 18, 0, 0, 0, time.UTC)}
	pw, err := pcap.NewWriter(&c.buf, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	c.pw = pw
	return c
}

// frame appends one packet, 10 ms after the previous one, carrying
// payloadLen bytes of zeros.
func (c *capture) frame(fromServer bool, client [4]byte, flags packet.TCPFlags, seq, ack uint32, payloadLen int) {
	c.now = c.now.Add(10 * time.Millisecond)
	server := [4]byte{10, 0, 0, 1}
	ip := packet.IPv4{TTL: 64, Src: client, Dst: server}
	tcp := packet.TCPHeader{Seq: seq, Ack: ack, Flags: flags, Window: 65535, SrcPort: 12345, DstPort: 80}
	if fromServer {
		ip.Src, ip.Dst = server, client
		tcp.SrcPort, tcp.DstPort = 80, 12345
	}
	data := packet.EncodeTCPv4(&packet.Ethernet{}, &ip, &tcp, make([]byte, payloadLen))
	if err := c.pw.WritePacket(pcap.Packet{Timestamp: c.now, Data: data}); err != nil {
		c.t.Fatal(err)
	}
}

// reconnectCapture interleaves two clients: B resets its connection
// and reconnects from the same endpoint while A's is still open, and A
// stalls for two seconds before its last segment. The capture's flows
// are A, B and B#2; B is the first to end, so the monitor evicts the
// flows out of flow-ID order.
func reconnectCapture(t *testing.T) []byte {
	a, b := [4]byte{100, 64, 0, 1}, [4]byte{100, 64, 0, 2}
	ack := packet.FlagACK
	c := newCapture(t)
	c.frame(false, a, packet.FlagSYN, 0, 0, 0)
	c.frame(false, b, packet.FlagSYN, 0, 0, 0)
	c.frame(true, a, packet.FlagSYN|ack, 0, 1, 0)
	c.frame(true, b, packet.FlagSYN|ack, 0, 1, 0)
	c.frame(false, a, ack, 1, 1, 0)
	c.frame(false, b, ack, 1, 1, 0)
	c.frame(true, a, ack, 1, 1, 1000)
	c.frame(true, b, ack, 1, 1, 500)
	c.frame(false, a, ack, 1, 1001, 0)
	c.frame(false, b, ack, 1, 501, 0)
	c.frame(false, b, packet.FlagRST, 1, 0, 0)
	c.frame(false, b, packet.FlagSYN, 9000, 0, 0)
	c.frame(true, b, packet.FlagSYN|ack, 5000, 9001, 0)
	c.frame(false, b, ack, 9001, 5001, 0)
	c.frame(true, b, ack, 5001, 9001, 200)
	c.frame(false, b, ack, 9001, 5201, 0)
	c.now = c.now.Add(2 * time.Second)
	c.frame(true, a, ack, 1001, 1, 1000)
	c.frame(false, a, ack, 1, 2001, 0)
	return c.buf.Bytes()
}

// testCaptures returns the three golden captures and the reconnect
// capture, by name.
func testCaptures(t *testing.T) map[string][]byte {
	captures := map[string][]byte{"reconnect": reconnectCapture(t)}
	for _, name := range []string{"golden_client", "golden_network", "golden_server"} {
		data, err := os.ReadFile(goldenDir + name + ".pcap")
		if err != nil {
			t.Fatal(err)
		}
		captures[name] = data
	}
	return captures
}

// batchAnalyses is the reference analyzeCapture must match:
// core.Analyze over every flow trace.ImportPcap reassembles, ordered
// by flow ID.
func batchAnalyses(t *testing.T, data []byte, cfg core.Config) []*core.FlowAnalysis {
	flows, err := trace.ImportPcap(bytes.NewReader(data), trace.ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var as []*core.FlowAnalysis
	for _, f := range flows {
		as = append(as, core.Analyze(f, cfg))
	}
	sort.Slice(as, func(i, j int) bool { return as[i].FlowID < as[j].FlowID })
	return as
}

func marshal(t *testing.T, as []*core.FlowAnalysis) []byte {
	out, err := core.MarshalAnalyses(as)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flowIDs(as []*core.FlowAnalysis) []string {
	ids := make([]string, len(as))
	for i, a := range as {
		ids[i] = a.FlowID
	}
	return ids
}

// TestAnalyzeCaptureMatchesAnalyze: streaming a capture through the
// monitor gives, field for field, the analyses core.Analyze gives over
// the imported flows, in flow-ID order — on the golden captures and on
// a reconnect, with one shard and with several.
func TestAnalyzeCaptureMatchesAnalyze(t *testing.T) {
	captures := testCaptures(t)
	cfg := core.DefaultConfig()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs) // the monitor runs one shard per CPU
		for name, data := range captures {
			want := batchAnalyses(t, data, cfg)
			if ids := flowIDs(want); name == "reconnect" && (len(ids) != 3 || ids[2] != ids[1]+"#2") {
				t.Fatalf("reconnect capture has flows %v, want A, B, B#2", ids)
			}
			got, err := analyzeCapture(bytes.NewReader(data), trace.ImportConfig{}, live.Config{Analysis: cfg}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, got), marshal(t, want)) {
				t.Errorf("%s, %d shards: analyzeCapture differs from core.Analyze\n got flows %v\nwant flows %v",
					name, procs, flowIDs(got), flowIDs(want))
			}
		}
	}
}

// TestExplainMatchesAnalyzeFlight: tapo explain, run as a command,
// prints what explain.Flow renders of core.AnalyzeFlight over the
// imported flows, in flow-ID order, and its -trace-out holds for each
// flow the reference's pkt lines in the same order and the same stall
// lines — on the golden captures and on a reconnect, with one shard
// and with several, unfiltered and with -flow set to the last flow ID.
func TestExplainMatchesAnalyzeFlight(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	for name, data := range testCaptures(t) {
		capture := filepath.Join(dir, name+".pcap")
		if err := os.WriteFile(capture, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flows, err := trace.ImportPcap(bytes.NewReader(data), trace.ImportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
		for _, filter := range []string{"", flows[len(flows)-1].ID} {
			var want []string
			var wantTrace bytes.Buffer
			tw := explain.NewTraceWriter(&wantTrace)
			for _, f := range flows {
				if !strings.Contains(f.ID, filter) {
					continue
				}
				a, rec := core.AnalyzeFlight(f, core.DefaultConfig(), flight.Config{})
				for i := range f.Records {
					if err := tw.Pkt(f.ID, i, &f.Records[i]); err != nil {
						t.Fatal(err)
					}
				}
				if filter == "" && len(a.Stalls) == 0 {
					continue
				}
				if err := tw.Stalls(a, rec); err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				explain.Flow(&b, a, rec)
				want = append(want, b.String())
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s, -flow %q: the reference explains no flow", name, filter)
			}

			args := "explain -trace-out " + traceOut + " " + capture
			if filter != "" {
				args = "explain -flow " + filter + " -trace-out " + traceOut + " " + capture
			}
			for _, procs := range []string{"1", "4"} { // the monitor runs one shard per CPU
				stdout, stderr, err := runTapo(t, args, "GOMAXPROCS="+procs)
				if err != nil {
					t.Fatalf("tapo %s: %v\n%s", args, err, stderr)
				}
				if got := string(stdout); got != strings.Join(want, "\n") {
					t.Errorf("%s, %s shards, -flow %q: tapo explain prints\n%s\nwant\n%s",
						name, procs, filter, got, strings.Join(want, "\n"))
				}
				gotTrace, err := os.ReadFile(traceOut)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := traceByFlow(t, gotTrace), traceByFlow(t, wantTrace.Bytes()); !reflect.DeepEqual(g, w) {
					t.Errorf("%s, %s shards, -flow %q: the -trace-out lines differ from the reference", name, procs, filter)
				}
			}
		}
	}
}

// traceByFlow splits JSONL trace lines by flow: each flow's pkt lines
// in the order written, then its stall lines sorted.
func traceByFlow(t *testing.T, b []byte) map[string][]string {
	lines := map[string][]string{}
	stalls := map[string][]string{}
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if line == "" {
			continue
		}
		var probe struct{ Type, Flow string }
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch probe.Type {
		case "pkt":
			lines[probe.Flow] = append(lines[probe.Flow], line)
		case "stall":
			stalls[probe.Flow] = append(stalls[probe.Flow], line)
		default:
			t.Fatalf("trace line of type %q: %s", probe.Type, line)
		}
	}
	for flow, ls := range stalls {
		sort.Strings(ls)
		lines[flow] = append(lines[flow], ls...)
	}
	return lines
}

// TestUsageErrors: a malformed command line exits with status 2, for
// tapo and tapo explain alike.
func TestUsageErrors(t *testing.T) {
	golden := goldenDir + "golden_network.pcap"
	for _, args := range []string{
		"",                      // no capture
		"-port 0 " + golden,     // port 0
		"-port 80,80 " + golden, // duplicate port
		"-tau NaN " + golden,    // τ·SRTT is no duration
		"-tau +Inf " + golden,   // τ·SRTT overflows a time.Duration
		"-tau 1e300 " + golden,  // likewise
		"-tau 0 " + golden,      // would silently run at τ = 2
		"-tau -1 " + golden,     // likewise
		"explain",               // no capture
		"explain -tau NaN " + golden,
		"explain -tau 1e300 " + golden,
		"explain -tau 0 " + golden,
	} {
		_, stderr, err := runTapo(t, args)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("tapo %s: err = %v, want exit status 2\n%s", args, err, stderr)
		}
	}
}

// TestMain runs main instead of the tests when TAPO_TEST_ARGS is set,
// with those arguments: runTapo runs tapo that way.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TAPO_TEST_ARGS"); ok {
		os.Args = append([]string{"tapo"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTapo runs tapo with the space-separated args in a child process
// whose environment adds env.
func runTapo(t *testing.T, args string, env ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(append(os.Environ(), "TAPO_TEST_ARGS="+args), env...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}
