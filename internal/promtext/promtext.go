// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) that tapod's and the fleet head's /metrics serve.
// Each metric family is declared once, as a *Family, and every sample
// is written through it, so names, types, the HELP/TYPE headers,
// sample-name suffixes, number formatting and label escaping are
// decided here and nowhere else.
package promtext

import (
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"tcpstall/internal/stats"
)

// Type is a metric family's exposition type.
type Type string

// The exposition types the exporters use.
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
	Summary   Type = "summary"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

	// The format escapes exactly these in label values, and only the
	// first and last in HELP text; anything else is written raw.
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

	leLabel       = []string{"le"}
	quantileLabel = []string{"quantile"}
)

// Family is one declared metric family: its name, type, HELP text and
// label names.
type Family struct {
	name   string
	typ    Type
	labels []string
	header string // the HELP and TYPE lines
}

// NewFamily declares a family. Histogram and summary families take no
// labels of their own; the writer adds le and quantile. It panics on
// an invalid metric or label name, a repeated label or an unknown
// type, so a typo fails when the declaring package initialises.
func NewFamily(name string, typ Type, help string, labels ...string) *Family {
	if !metricNameRe.MatchString(name) {
		panic("promtext: invalid metric name " + strconv.Quote(name))
	}
	switch typ {
	case Counter, Gauge:
	case Histogram, Summary:
		if len(labels) > 0 {
			panic("promtext: " + name + ": a " + string(typ) + " family takes no labels")
		}
	default:
		panic("promtext: " + name + ": unknown type " + strconv.Quote(string(typ)))
	}
	for i, l := range labels {
		if !labelNameRe.MatchString(l) || strings.HasPrefix(l, "__") || slices.Contains(labels[:i], l) {
			panic("promtext: " + name + ": invalid or repeated label name " + strconv.Quote(l))
		}
	}
	return &Family{
		name:   name,
		typ:    typ,
		labels: labels,
		header: "# HELP " + name + " " + helpEscaper.Replace(help) + "\n# TYPE " + name + " " + string(typ) + "\n",
	}
}

// Writer writes one exposition. A family's HELP and TYPE lines come
// once, before its first sample, and its samples follow with no other
// family in between; a caller that breaks this, or passes the wrong
// number of label values, has a bug, and the writer panics.
//
// Write errors are dropped: the exposition is an HTTP response body,
// and a scraper that went away scrapes again.
type Writer struct {
	w    io.Writer
	cur  *Family
	done map[*Family]bool
	line []byte
}

// NewWriter returns a Writer that writes to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, done: map[*Family]bool{}}
}

// Family writes f's HELP and TYPE lines unless f is the family being
// written. Call it before a loop that may write no sample, so that an
// empty family is still declared.
func (w *Writer) Family(f *Family) {
	if w.cur == f {
		return
	}
	if w.done[f] {
		panic("promtext: family " + f.name + " written twice")
	}
	w.done[f] = true
	w.cur = f
	io.WriteString(w.w, f.header)
}

// Uint writes one sample of a counter or gauge family, with the label
// values in the order f declares its labels.
func (w *Writer) Uint(f *Family, v uint64, labelValues ...string) {
	w.scalar(f, strconv.FormatUint(v, 10), labelValues)
}

// Float is Uint for a float value.
func (w *Writer) Float(f *Family, v float64, labelValues ...string) {
	w.scalar(f, fnum(v), labelValues)
}

// Counts writes one sample per key of m, in key order, with the key as
// the value of f's one label.
func (w *Writer) Counts(f *Family, m map[string]uint64) {
	w.Family(f)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.Uint(f, m[k], k)
	}
}

func (w *Writer) scalar(f *Family, value string, labelValues []string) {
	if (f.typ != Counter && f.typ != Gauge) || len(labelValues) != len(f.labels) {
		panic("promtext: " + f.name + ": sample does not match the family's type or labels")
	}
	w.Family(f)
	w.sample(f.name, f.labels, labelValues, value)
}

// Histogram writes the whole of histogram family f from st, which must
// be valid (see stats.HistogramState.Validate): the cumulative buckets
// ending in +Inf, then _sum and _count. The bounds and _sum are in
// milliseconds, the histogram's bucket unit.
func (w *Writer) Histogram(f *Family, st stats.HistogramState) {
	w.whole(f, Histogram)
	var n uint64
	for _, c := range st.Counts {
		n += c
	}
	var cum uint64
	for i, ub := range st.Bounds {
		cum += st.Counts[i]
		w.sample(f.name+"_bucket", leLabel, []string{fnum(ub)}, strconv.FormatUint(cum, 10))
	}
	w.sample(f.name+"_bucket", leLabel, []string{"+Inf"}, strconv.FormatUint(n, 10))
	w.sample(f.name+"_sum", nil, nil, fnum(float64(st.SumNS)/1e6))
	w.sample(f.name+"_count", nil, nil, strconv.FormatUint(n, 10))
}

// Quantile is one summary sample: V is the Q-quantile.
type Quantile struct{ Q, V float64 }

// Summary writes the whole of summary family f: one sample per
// quantile, then _count. There is no _sum; the format allows leaving
// it out.
func (w *Writer) Summary(f *Family, count uint64, qs ...Quantile) {
	w.whole(f, Summary)
	for _, q := range qs {
		w.sample(f.name, quantileLabel, []string{fnum(q.Q)}, fnum(q.V))
	}
	w.sample(f.name+"_count", nil, nil, strconv.FormatUint(count, 10))
}

func (w *Writer) whole(f *Family, typ Type) {
	if f.typ != typ || w.done[f] {
		panic("promtext: " + f.name + " is not an unwritten " + string(typ) + " family")
	}
	w.Family(f)
}

// sample writes one sample line. Label values are escaped as the
// format requires, and invalid UTF-8 becomes U+FFFD, so no label value
// can break a scrape.
func (w *Writer) sample(name string, labels, values []string, value string) {
	b := append(w.line[:0], name...)
	for i, l := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(b, l...)
		b = append(b, `="`...)
		b = append(b, labelEscaper.Replace(strings.ToValidUTF8(values[i], string(utf8.RuneError)))...)
		b = append(b, '"')
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = append(b, value...)
	b = append(b, '\n')
	w.line = b
	w.w.Write(b)
}

// fnum formats a float as Prometheus clients do: the shortest
// representation that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
