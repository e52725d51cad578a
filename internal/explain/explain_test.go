package explain

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden explain narratives")

func loadGolden(t *testing.T, name string) []*trace.Flow {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "core", "testdata", name+".pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flows, err := trace.ImportPcap(f, trace.ImportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("golden pcap contains no flows")
	}
	return flows
}

// The explain narrative for each Figure-5 family's golden pcap is
// pinned byte-for-byte. Regenerate with -update after an intentional
// classifier or renderer change.
func TestGoldenExplain(t *testing.T) {
	for _, name := range []string{"golden_server", "golden_client", "golden_network"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			for i, fl := range loadGolden(t, name) {
				if i > 0 {
					buf.WriteByte('\n')
				}
				a, rec := core.AnalyzeFlight(fl, core.DefaultConfig(), flight.Config{})
				Flow(&buf, a, rec)
			}
			goldenPath := filepath.Join("testdata", name+".explain.txt")
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("explain narrative of %s diverges from %s (got %d bytes, want %d); run with -update after intentional changes",
					name, goldenPath, buf.Len(), len(want))
			}
		})
	}
}

// Every golden narrative must show a complete story: a decision path
// whose steps carry concrete variables, and a packet window with the
// cur_pkt marker.
func TestExplainShowsDecisionPath(t *testing.T) {
	flows := loadGolden(t, "golden_network")
	a, rec := core.AnalyzeFlight(flows[0], core.DefaultConfig(), flight.Config{})
	if len(a.Stalls) == 0 {
		t.Fatal("golden_network flow has no stalls")
	}
	var buf bytes.Buffer
	Flow(&buf, a, rec)
	out := buf.String()
	for _, want := range []string{
		"decision path (Figure 5 / Table 5):",
		"cur_pkt is outgoing data",
		"copies_before=",
		"<- cur_pkt",
		"silence",
		"analyzer events near the stall:",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("narrative missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}
}

// A stall without evidence (disabled recorder) must still render a
// verdict-only summary rather than panicking.
func TestExplainWithoutEvidence(t *testing.T) {
	flows := loadGolden(t, "golden_client")
	a := core.Analyze(flows[0], core.DefaultConfig())
	if len(a.Stalls) == 0 {
		t.Fatal("no stalls")
	}
	var buf bytes.Buffer
	Flow(&buf, a, nil)
	if !bytes.Contains(buf.Bytes(), []byte("no evidence captured")) {
		t.Errorf("missing disabled-recorder fallback:\n%s", buf.String())
	}
}

// The JSONL export must hold one pkt line per record, in order, and
// one stall line per classified stall carrying its evidence.
func TestWriteTraceJSONL(t *testing.T) {
	flows := loadGolden(t, "golden_network")
	fl := flows[0]
	a, rec := core.AnalyzeFlight(fl, core.DefaultConfig(), flight.Config{})
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for i := range fl.Records {
		if err := tw.Pkt(fl.ID, i, &fl.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Stalls(a, rec); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	pkts, stalls := 0, 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lastIdx := -1
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
			Idx  int    `json:"idx"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad JSONL line: %v: %s", err, sc.Text())
		}
		switch probe.Type {
		case "pkt":
			if probe.Idx != lastIdx+1 {
				t.Fatalf("pkt lines out of order: idx %d after %d", probe.Idx, lastIdx)
			}
			lastIdx = probe.Idx
			pkts++
		case "stall":
			var line StallLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if line.Evidence == nil || len(line.Evidence.Decision) == 0 {
				t.Errorf("stall %d exported without evidence", line.ID)
			}
			stalls++
		default:
			t.Fatalf("unknown line type %q", probe.Type)
		}
	}
	if pkts != len(fl.Records) {
		t.Errorf("pkt lines = %d, records = %d", pkts, len(fl.Records))
	}
	if stalls != len(a.Stalls) {
		t.Errorf("stall lines = %d, stalls = %d", stalls, len(a.Stalls))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
