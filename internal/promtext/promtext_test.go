package promtext_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"tcpstall/internal/fleet"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/stats"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

// This file checks the real /metrics of tapod and the head against the
// exposition format and against the README metric tables. It parses
// the scraped bytes itself, so it judges what a scraper sees, not how
// the exporters are written.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one parsed metric family.
type family struct {
	name, typ string
	help      bool
	labels    []string // sorted label names, without le and quantile
	samples   []sample
}

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parse reads an exposition and enforces the format's rules: valid
// names, escapes and UTF-8; one HELP and one TYPE per family; every
// sample under the family declared just before it, with that
// family's label set; consistent histograms.
func parse(text string) ([]*family, error) {
	var fams []*family
	byName := map[string]*family{}
	var cur *family
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		n := i + 1
		if kind, rest, ok := strings.Cut(line, " "); ok && kind == "#" {
			kind, rest, _ = strings.Cut(rest, " ")
			if kind != "HELP" && kind != "TYPE" {
				continue // a plain comment
			}
			name, arg, _ := strings.Cut(rest, " ")
			if !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", n, name)
			}
			f := byName[name]
			switch {
			case f == nil:
				f = &family{name: name}
				byName[name] = f
				fams = append(fams, f)
			case f != cur || len(f.samples) > 0:
				return nil, fmt.Errorf("line %d: family %s declared twice", n, name)
			}
			cur = f
			if kind == "HELP" {
				if f.help {
					return nil, fmt.Errorf("line %d: family %s declared twice (second HELP)", n, name)
				}
				if _, err := unescape(arg+"\n", "\n", `\`, `n`); err != nil {
					return nil, fmt.Errorf("line %d: HELP of %s: %v", n, name, err)
				}
				f.help = true
				continue
			}
			if f.typ != "" {
				return nil, fmt.Errorf("line %d: family %s declared twice (second TYPE)", n, name)
			}
			if !slices.Contains([]string{"counter", "gauge", "histogram", "summary", "untyped"}, arg) {
				return nil, fmt.Errorf("line %d: family %s has invalid type %q", n, name, arg)
			}
			f.typ = arg
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		if err := cur.add(s); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
	}
	for _, f := range fams {
		switch {
		case f.typ == "":
			return nil, fmt.Errorf("family %s has a HELP line but no TYPE", f.name)
		case !f.help:
			return nil, fmt.Errorf("family %s has a TYPE line but no HELP", f.name)
		case f.typ == "histogram":
			if err := f.checkHistogram(); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// add files s under f, the family declared last, if s belongs to it.
func (f *family) add(s sample) error {
	if f == nil {
		return fmt.Errorf("sample %s has no family", s.name)
	}
	var special string // the label the type adds to the plain name
	switch suffix, _ := strings.CutPrefix(s.name, f.name); {
	case !strings.HasPrefix(s.name, f.name):
		return fmt.Errorf("sample %s has no family (the last declared is %s)", s.name, f.name)
	case suffix == "":
		switch f.typ {
		case "histogram":
			return fmt.Errorf("histogram sample %s lacks a suffix", s.name)
		case "summary":
			special = "quantile"
		}
	case suffix == "_bucket" && f.typ == "histogram":
		special = "le"
	case (suffix == "_sum" || suffix == "_count") && (f.typ == "histogram" || f.typ == "summary"):
	default:
		return fmt.Errorf("sample %s has no family (the last declared is %s %s)", s.name, f.typ, f.name)
	}
	var names []string
	for k := range s.labels {
		if k != special {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	if _, ok := s.labels[special]; special != "" && !ok {
		return fmt.Errorf("sample %s lacks its %s label", s.name, special)
	}
	if len(f.samples) == 0 {
		f.labels = names
	} else if !slices.Equal(f.labels, names) {
		return fmt.Errorf("sample %s has labels %v, its family %v", s.name, names, f.labels)
	}
	f.samples = append(f.samples, s)
	return nil
}

// checkHistogram checks the one series of a histogram family:
// ascending le, non-decreasing cumulative counts, +Inf last and equal
// to _count.
func (f *family) checkHistogram() error {
	prevLE, prevN, inf := -1.0, 0.0, -1.0
	count := -1.0
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil || le <= prevLE || inf >= 0 {
				return fmt.Errorf("%s: bucket le=%q out of order", f.name, s.labels["le"])
			}
			if s.value < prevN {
				return fmt.Errorf("%s: bucket le=%q count %v below the previous %v", f.name, s.labels["le"], s.value, prevN)
			}
			prevLE, prevN = le, s.value
			if s.labels["le"] == "+Inf" {
				inf = s.value
			}
		case f.name + "_count":
			count = s.value
		}
	}
	if inf < 0 || inf != count {
		return fmt.Errorf("%s: +Inf bucket %v does not equal _count %v", f.name, inf, count)
	}
	return nil
}

// parseSample reads `name{label="value",...} value`.
func parseSample(line string) (sample, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return sample{}, fmt.Errorf("sample %q has no value", line)
	}
	s := sample{name: line[:i], labels: map[string]string{}}
	if !metricNameRe.MatchString(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			name, after, ok := strings.Cut(rest, `="`)
			if !ok || !labelNameRe.MatchString(name) {
				return s, fmt.Errorf("%s: malformed label in %q", s.name, rest)
			}
			if _, dup := s.labels[name]; dup {
				return s, fmt.Errorf("%s: label %s repeated", s.name, name)
			}
			end, err := unescape(after, `"`, `\`, `"`, `n`)
			if err != nil {
				return s, fmt.Errorf("%s: label %s: %v", s.name, name, err)
			}
			s.labels[name], rest = after[:end], after[end+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			} else if !strings.HasPrefix(rest, "}") {
				return s, fmt.Errorf("%s: expected , or } after label %s", s.name, name)
			}
		}
		rest = rest[1:]
	}
	fields := strings.Fields(rest)
	if !strings.HasPrefix(rest, " ") || len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("%s: want one value and an optional timestamp, got %q", s.name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("%s: bad value %q", s.name, fields[0])
	}
	s.value = v
	for k, raw := range s.labels {
		s.labels[k] = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(raw)
	}
	return s, nil
}

// unescape finds the first unescaped stop in s and returns its index.
// Only the escapes `\` followed by one of allowed are legal, and the
// text must be valid UTF-8.
func unescape(s, stop string, allowed ...string) (int, error) {
	for i := 0; i < len(s); i++ {
		switch {
		case strings.HasPrefix(s[i:], stop):
			if !utf8.ValidString(s[:i]) {
				return 0, errors.New("invalid UTF-8")
			}
			return i, nil
		case s[i] == '\\':
			if i+1 >= len(s) || !slices.Contains(allowed, s[i+1:i+2]) {
				return 0, fmt.Errorf("bad escape %q", s[i:min(i+2, len(s))])
			}
			i++
		}
	}
	return 0, fmt.Errorf("unterminated: no %q", stop)
}

// docRow is one row of a README metric table.
type docRow struct {
	typ    string
	labels []string // sorted
}

var backticked = regexp.MustCompile("`([^`]+)`")

// readmeTable reads the `| Family | Type | Labels | Meaning |` table
// under heading.
func readmeTable(md, heading string) (map[string]docRow, error) {
	_, after, ok := strings.Cut("\n"+md, "\n"+heading+"\n")
	if !ok {
		return nil, fmt.Errorf("no %q heading", heading)
	}
	rows := map[string]docRow{}
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			return nil, fmt.Errorf("row %q: want 4 cells (Family, Type, Labels, Meaning)", line)
		}
		name := backticked.FindStringSubmatch(cells[0])
		if name == nil {
			continue // the header row and the separator
		}
		var labels []string
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			labels = append(labels, m[1])
		}
		sort.Strings(labels)
		if _, dup := rows[name[1]]; dup {
			return nil, fmt.Errorf("%s has two rows", name[1])
		}
		rows[name[1]] = docRow{typ: strings.TrimSpace(cells[1]), labels: labels}
	}
	return rows, nil
}

// compareDocs checks the families and the table against each other:
// every family has a row with its type and label set, and every row
// names an emitted family.
func compareDocs(fams []*family, rows map[string]docRow) error {
	var errs []error
	emitted := map[string]bool{}
	for _, f := range fams {
		emitted[f.name] = true
		row, ok := rows[f.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("family %s is not documented", f.name))
		case row.typ != f.typ:
			errs = append(errs, fmt.Errorf("README gives %s type %s, the exporter %s", f.name, row.typ, f.typ))
		case !slices.Equal(row.labels, f.labels):
			errs = append(errs, fmt.Errorf("README gives %s labels %v, the exporter %v", f.name, row.labels, f.labels))
		}
	}
	var stale []string
	for name := range rows {
		if !emitted[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		errs = append(errs, fmt.Errorf("README documents %s, which the exporter does not emit", name))
	}
	return errors.Join(errs...)
}

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d %v", resp.StatusCode, err)
	}
	return string(body)
}

// tapodFixture runs sick web-search traffic through a monitor with
// triage and the flight recorder on, then drains it, so every
// labelled tapod family has samples.
func tapodFixture(t *testing.T) *live.Monitor {
	t.Helper()
	m := live.New(live.Config{Shards: 2, Triage: &triage.Config{}, Flight: &flight.Config{}})
	m.Start()
	workload.Stream(context.Background(), workload.WebSearch(), 7, workload.StreamOptions{Flows: 60, Concurrency: 4},
		func(ev trace.RecordEvent) { m.IngestBatchWait([]trace.RecordEvent{ev}) })
	m.Close()
	return m
}

// headFixture registers two members, restarts one and has the other
// retire, pushing snapshots that fill every labelled fleet family;
// each snapshot is pushed twice, so the reject counter has reasons.
func headFixture(t *testing.T) *fleet.Head {
	t.Helper()
	h := fleet.NewHead(fleet.HeadConfig{})
	push := func(id string, final bool) {
		reg, err := h.Register(fleet.RegisterRequest{Version: fleet.WireVersion, MemberID: id})
		if err != nil {
			t.Fatal(err)
		}
		durs := stats.NewHistogram(live.DurationBoundsMS)
		for _, d := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 1500 * time.Millisecond} {
			durs.Add(d)
		}
		snap := &fleet.Snapshot{
			Version: fleet.WireVersion, MemberID: id, Epoch: reg.Epoch, Seq: 1, Final: final,
			Counters: fleet.Counters{
				Ingested: 100, RingDrops: 1, RecordsFed: 90, FlowsSeen: 4,
				FlowsEvicted: map[string]uint64{"done": 3, "idle": 1},
				Stalls: []fleet.StallCounter{
					{Service: "cloud-storage", Cause: "zero-rwnd", Count: 1, Time: 500 * time.Millisecond},
					{Service: "web-search", Cause: "retransmission", Count: 2, Time: 1250 * time.Millisecond},
				},
				Retrans:     []fleet.RetransCounter{{Subcause: "tail-retrans", Count: 2, Time: 1250 * time.Millisecond}},
				DurationsMS: durs.State(),
			},
		}
		if resp := h.Push(snap); !resp.OK {
			t.Fatalf("push %s: %s", id, resp.Error)
		}
		if resp := h.Push(snap); resp.OK {
			t.Fatalf("duplicate push %s accepted", id)
		}
	}
	push("edge-1", false)
	push("edge-2", true)
	push("edge-1", false)
	return h
}

func TestMetricsMatchREADME(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, heading string
		handler       func(*testing.T) http.Handler
	}{
		{"tapod", "### tapod metrics reference", func(t *testing.T) http.Handler { return live.NewHandler(tapodFixture(t)) }},
		{"head", "### Head metrics reference", func(t *testing.T) http.Handler { return fleet.NewHandler(headFixture(t)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fams, err := parse(scrape(t, tc.handler(t)))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fams {
				if len(f.samples) == 0 {
					t.Errorf("the fixture leaves family %s without samples", f.name)
				}
			}
			rows, err := readmeTable(string(raw), tc.heading)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareDocs(fams, rows); err != nil {
				t.Errorf("README.md %q disagrees with /metrics:\n%v", tc.heading, err)
			}
		})
	}
}

// TestCheckerCatchesMistakes seeds one mistake per case into an
// otherwise clean exposition or README table.
func TestCheckerCatchesMistakes(t *testing.T) {
	const expo = `# HELP x_total Things.
# TYPE x_total counter
x_total{reason="a"} 1
# HELP d_ms Durations.
# TYPE d_ms histogram
d_ms_bucket{le="10"} 1
d_ms_bucket{le="+Inf"} 2
d_ms_sum 25
d_ms_count 2
`
	const docs = "### m\n\n| Family | Type | Labels | Meaning |\n|---|---|---|---|\n" +
		"| `x_total` | counter | `reason` | things |\n" +
		"| `d_ms` | histogram | — | durations |\n"
	for _, tc := range []struct {
		name, expo, docs, want string
	}{
		{"clean", expo, docs, ""},
		{"duplicate family", expo + "# HELP x_total Again.\n# TYPE x_total counter\nx_total{reason=\"b\"} 1\n", docs, "declared twice"},
		{"TYPE without HELP", expo + "# TYPE y gauge\ny 1\n", docs, "TYPE line but no HELP"},
		{"HELP without TYPE", expo + "# HELP y Why.\ny 1\n", docs, "HELP line but no TYPE"},
		{"sample without family", "y 1\n" + expo, docs, "has no family"},
		{"sample under another family", expo + "x_total{reason=\"b\"} 2\n", docs, "has no family"},
		{"label set drifts", strings.Replace(expo, "x_total{reason=\"a\"} 1", "x_total{reason=\"a\"} 1\nx_total{kind=\"a\"} 1", 1), docs, "has labels"},
		{"bad escape", strings.Replace(expo, `reason="a"`, `reason="a\tb"`, 1), docs, "bad escape"},
		{"invalid UTF-8", strings.Replace(expo, `reason="a"`, "reason=\"a\xffb\"", 1), docs, "invalid UTF-8"},
		{"bad label name", strings.Replace(expo, `reason="a"`, `1reason="a"`, 1), docs, "malformed label"},
		{"buckets decrease", strings.Replace(expo, `d_ms_bucket{le="+Inf"} 2`, `d_ms_bucket{le="+Inf"} 0`, 1), docs, "below the previous"},
		{"+Inf is not _count", strings.Replace(expo, "d_ms_count 2", "d_ms_count 3", 1), docs, "does not equal _count"},
		{"undocumented family", expo + "# HELP y Why.\n# TYPE y gauge\ny 1\n", docs, "y is not documented"},
		{"stale README row", expo, docs + "| `gone_total` | counter | — | removed |\n", "README documents gone_total"},
		{"wrong type in README", expo, strings.Replace(docs, "| counter |", "| gauge |", 1), "type gauge"},
		{"wrong labels in README", expo, strings.Replace(docs, "`reason`", "`kind`", 1), "labels [kind]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := check(tc.expo, tc.docs)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("clean input rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func check(expo, docs string) error {
	fams, err := parse(expo)
	if err != nil {
		return err
	}
	rows, err := readmeTable(docs, "### m")
	if err != nil {
		return err
	}
	return compareDocs(fams, rows)
}

// TestHeadLabelValuesRoundTrip pushes stall cells whose services hold
// every character the exposition format treats specially, and checks
// that a strict parser reads each service back from the head's
// /metrics. Invalid UTF-8 comes back as U+FFFD.
func TestHeadLabelValuesRoundTrip(t *testing.T) {
	services := []string{"web\tsearch", `say "hi"`, `back\slash`, "two\nlines", "bad\xffbyte", "bell\a"}
	sort.Strings(services)
	h := fleet.NewHead(fleet.HeadConfig{})
	reg, err := h.Register(fleet.RegisterRequest{Version: fleet.WireVersion, MemberID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	snap := &fleet.Snapshot{Version: fleet.WireVersion, MemberID: "edge-1", Epoch: reg.Epoch, Seq: 1}
	snap.DurationsMS = stats.NewHistogram(live.DurationBoundsMS).State()
	want := map[string]bool{}
	for _, svc := range services {
		snap.Stalls = append(snap.Stalls, fleet.StallCounter{Service: svc, Cause: "pkt-delay", Count: 1, Time: 500 * time.Millisecond})
		want[strings.ToValidUTF8(svc, string(utf8.RuneError))] = true
	}
	if resp := h.Push(snap); !resp.OK {
		t.Fatalf("push: %s", resp.Error)
	}
	fams, err := parse(scrape(t, fleet.NewHandler(h)))
	if err != nil {
		t.Fatalf("the head's /metrics does not parse: %v", err)
	}
	got := map[string]bool{}
	for _, f := range fams {
		if f.name == "fleet_stalls_total" {
			for _, s := range f.samples {
				got[s.labels["service"]] = true
			}
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("service labels read back as %v, want %v", got, want)
	}
}
