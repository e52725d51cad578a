package fleet

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"tcpstall/internal/stats"
)

// Counters is a member's cumulative counter set: everything that only
// grows over an epoch and sums across members. It is declared once.
// Snapshot embeds it as the wire form, Totals as the fleet fold, the
// member rebases with it and the head's time-series rings difference
// with it. Merge is the one fold and Sub the one difference; nothing
// else in the package walks these fields.
type Counters struct {
	Ingested                  uint64            `json:"records_ingested"`
	RingDrops                 uint64            `json:"ring_drops"`
	RecordsFed                uint64            `json:"records_fed"`
	RecordCapDrops            uint64            `json:"record_cap_drops"`
	SampledOut                uint64            `json:"records_sampled_out"`
	FlowsSeen                 uint64            `json:"flows_seen"`
	FlowsEvicted              map[string]uint64 `json:"flows_evicted,omitempty"`
	FlowsTruncated            uint64            `json:"flows_truncated"`
	UnknownConfigKeys         uint64            `json:"unknown_config_keys"`
	TriageFastRecords         uint64            `json:"triage_fast_records"`
	TriagePromotions          map[string]uint64 `json:"triage_promotions,omitempty"`
	TriageRepromotions        uint64            `json:"triage_repromotions"`
	TriageDemotions           uint64            `json:"triage_demotions"`
	TriageTruncatedPromotions uint64            `json:"triage_truncated_promotions"`

	// Stalls and Retrans are sorted by (service, cause) and subcause
	// respectively — composite keys cannot be JSON map keys, and the
	// sorted slice keeps the encoding canonical.
	Stalls      []StallCounter       `json:"stalls,omitempty"`
	Retrans     []RetransCounter     `json:"retrans,omitempty"`
	DurationsMS stats.HistogramState `json:"stall_duration_ms"`

	// IngestBatchSizes summarizes the member's post-sampling ingest
	// batch sizes — a fleet-wide view of batching health.
	IngestBatchSizes stats.SummaryState `json:"ingest_batch_sizes"`
}

// StallCounter is one (service, cause) stall cell.
type StallCounter struct {
	Service string  `json:"service"`
	Cause   string  `json:"cause"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// RetransCounter is one Table-5 retransmission sub-cause cell.
type RetransCounter struct {
	Subcause string  `json:"subcause"`
	Count    uint64  `json:"count"`
	Seconds  float64 `json:"seconds"`
}

// Merge folds o into c. Scalars and map entries add; the cell lists
// merge by key; the duration histogram and the batch-size summary
// merge as state. Floats accumulate in call order, so a left fold in a
// fixed order always produces the same bits.
//
// o is untrusted wire input. A cell list that is not strictly
// ascending by key, a malformed histogram, a histogram whose layout
// differs from c's, or a summary with a negative count is an error,
// and c is then unchanged. An o with no observations leaves c's
// histogram alone; an empty c adopts o's layout.
//
// c is updated in place and allocates only when o brings a cell key c
// lacks, so the head's steady-state fold — every member reports the
// same cells — does not allocate per member.
func (c *Counters) Merge(o *Counters) error {
	freshStalls, err := freshCells(c.Stalls, o.Stalls)
	if err != nil {
		return fmt.Errorf("stalls: %w", err)
	}
	freshRetrans, err := freshCells(c.Retrans, o.Retrans)
	if err != nil {
		return fmt.Errorf("retrans: %w", err)
	}
	if err := o.DurationsMS.Validate(); err != nil {
		return err
	}
	adopt := len(c.DurationsMS.Counts) == 0
	if !adopt && !slices.Equal(c.DurationsMS.Bounds, o.DurationsMS.Bounds) {
		return errors.New("different histogram layout")
	}
	batches, err := stats.SummaryFromState(c.IngestBatchSizes)
	if err != nil {
		return err
	}
	ob, err := stats.SummaryFromState(o.IngestBatchSizes)
	if err != nil {
		return err
	}

	c.Ingested += o.Ingested
	c.RingDrops += o.RingDrops
	c.RecordsFed += o.RecordsFed
	c.RecordCapDrops += o.RecordCapDrops
	c.SampledOut += o.SampledOut
	c.FlowsSeen += o.FlowsSeen
	c.FlowsTruncated += o.FlowsTruncated
	c.UnknownConfigKeys += o.UnknownConfigKeys
	c.TriageFastRecords += o.TriageFastRecords
	c.TriageRepromotions += o.TriageRepromotions
	c.TriageDemotions += o.TriageDemotions
	c.TriageTruncatedPromotions += o.TriageTruncatedPromotions
	c.FlowsEvicted = addCounts(c.FlowsEvicted, o.FlowsEvicted)
	c.TriagePromotions = addCounts(c.TriagePromotions, o.TriagePromotions)
	c.Stalls = mergeCells(c.Stalls, o.Stalls, freshStalls)
	c.Retrans = mergeCells(c.Retrans, o.Retrans, freshRetrans)

	h, oh := &c.DurationsMS, &o.DurationsMS
	switch {
	case adopt: // non-nil copies: an empty layout encodes as [], like Histogram.State
		*h = stats.HistogramState{
			Bounds: append([]float64{}, oh.Bounds...),
			Counts: append([]uint64{}, oh.Counts...),
			Sum:    oh.Sum,
		}
	case slices.ContainsFunc(oh.Counts, func(n uint64) bool { return n > 0 }):
		for i, n := range oh.Counts {
			h.Counts[i] += n
		}
		h.Sum += oh.Sum
	}
	batches.Merge(ob)
	c.IngestBatchSizes = batches.State()
	return nil
}

// Sub returns c − prev: what c counted since the earlier cumulative
// state prev. Every count is floored at zero, uint64 and float64
// alike, so a prev that is not below c cannot wrap a counter; cells
// and map entries that come out zero are dropped. The histogram is
// differenced bucket by bucket when the layouts match and is c's
// otherwise. The batch-size summary is carried from c, not
// differenced: min and max do not subtract.
func (c *Counters) Sub(prev *Counters) Counters {
	d := Counters{
		Ingested:                  floorSub(c.Ingested, prev.Ingested),
		RingDrops:                 floorSub(c.RingDrops, prev.RingDrops),
		RecordsFed:                floorSub(c.RecordsFed, prev.RecordsFed),
		RecordCapDrops:            floorSub(c.RecordCapDrops, prev.RecordCapDrops),
		SampledOut:                floorSub(c.SampledOut, prev.SampledOut),
		FlowsSeen:                 floorSub(c.FlowsSeen, prev.FlowsSeen),
		FlowsEvicted:              subCounts(c.FlowsEvicted, prev.FlowsEvicted),
		FlowsTruncated:            floorSub(c.FlowsTruncated, prev.FlowsTruncated),
		UnknownConfigKeys:         floorSub(c.UnknownConfigKeys, prev.UnknownConfigKeys),
		TriageFastRecords:         floorSub(c.TriageFastRecords, prev.TriageFastRecords),
		TriagePromotions:          subCounts(c.TriagePromotions, prev.TriagePromotions),
		TriageRepromotions:        floorSub(c.TriageRepromotions, prev.TriageRepromotions),
		TriageDemotions:           floorSub(c.TriageDemotions, prev.TriageDemotions),
		TriageTruncatedPromotions: floorSub(c.TriageTruncatedPromotions, prev.TriageTruncatedPromotions),
		Stalls:                    subCells(c.Stalls, prev.Stalls),
		Retrans:                   subCells(c.Retrans, prev.Retrans),
		DurationsMS:               c.DurationsMS,
		IngestBatchSizes:          c.IngestBatchSizes,
	}
	h, p := &d.DurationsMS, &prev.DurationsMS
	h.Counts = slices.Clone(h.Counts)
	if slices.Equal(h.Bounds, p.Bounds) && len(h.Counts) == len(p.Counts) {
		for i, n := range p.Counts {
			h.Counts[i] = floorSub(h.Counts[i], n)
		}
		h.Sum = floorSub(h.Sum, p.Sum)
	}
	return d
}

// Clone deep-copies c, so a fold continued on the copy cannot disturb
// the original.
func (c *Counters) Clone() Counters {
	cp := *c
	cp.FlowsEvicted = maps.Clone(c.FlowsEvicted)
	cp.TriagePromotions = maps.Clone(c.TriagePromotions)
	cp.Stalls = slices.Clone(c.Stalls)
	cp.Retrans = slices.Clone(c.Retrans)
	cp.DurationsMS.Bounds = slices.Clone(c.DurationsMS.Bounds)
	cp.DurationsMS.Counts = slices.Clone(c.DurationsMS.Counts)
	return cp
}

func addCounts(acc, o map[string]uint64) map[string]uint64 {
	for k, n := range o {
		if acc == nil {
			acc = map[string]uint64{}
		}
		acc[k] += n
	}
	return acc
}

func subCounts(cur, prev map[string]uint64) map[string]uint64 {
	var out map[string]uint64
	for k, n := range cur {
		if d := floorSub(n, prev[k]); d > 0 {
			if out == nil {
				out = map[string]uint64{}
			}
			out[k] = d
		}
	}
	return out
}

// floorSub subtracts with a floor at zero: both operands are
// cumulative and the minuend is the later one, so a would-be underflow
// means a bug upstream, and a zero beats poisoning fleet totals with a
// wrapped uint64 or a negative duration.
func floorSub[N uint64 | float64](a, b N) N {
	if a <= b {
		return 0
	}
	return a - b
}

// cell is what the sorted-list merge and difference need of a counter
// cell: a key order and the arithmetic on its values.
type cell[T any] interface {
	*T
	cmp(o *T) int
	add(o *T)
	sub(o *T) // floored at zero
	zero() bool
}

func (s *StallCounter) cmp(o *StallCounter) int {
	if c := strings.Compare(s.Service, o.Service); c != 0 {
		return c
	}
	return strings.Compare(s.Cause, o.Cause)
}

func (s *StallCounter) add(o *StallCounter) { s.Count += o.Count; s.Seconds += o.Seconds }

func (s *StallCounter) sub(o *StallCounter) {
	s.Count, s.Seconds = floorSub(s.Count, o.Count), floorSub(s.Seconds, o.Seconds)
}

func (s *StallCounter) zero() bool { return s.Count == 0 && s.Seconds == 0 }

func (r *RetransCounter) cmp(o *RetransCounter) int { return strings.Compare(r.Subcause, o.Subcause) }

func (r *RetransCounter) add(o *RetransCounter) { r.Count += o.Count; r.Seconds += o.Seconds }

func (r *RetransCounter) sub(o *RetransCounter) {
	r.Count, r.Seconds = floorSub(r.Count, o.Count), floorSub(r.Seconds, o.Seconds)
}

func (r *RetransCounter) zero() bool { return r.Count == 0 && r.Seconds == 0 }

var errUnsorted = errors.New("cells not strictly ascending by key")

// freshCells checks that o is strictly ascending by key — no
// duplicate, no disorder — and counts the keys of o that the ascending
// list acc lacks.
func freshCells[T any, P cell[T]](acc, o []T) (int, error) {
	fresh, i := 0, 0
	for j := range o {
		if j > 0 && P(&o[j-1]).cmp(&o[j]) >= 0 {
			return 0, errUnsorted
		}
		for i < len(acc) && P(&acc[i]).cmp(&o[j]) < 0 {
			i++
		}
		if i == len(acc) || P(&acc[i]).cmp(&o[j]) != 0 {
			fresh++
		}
	}
	return fresh, nil
}

// mergeCells adds o into acc, both ascending, given freshCells' count
// of o's new keys. With none, acc is updated in place; otherwise the
// merged list is built in a new slice and acc is left as it was.
func mergeCells[T any, P cell[T]](acc, o []T, fresh int) []T {
	if fresh == 0 {
		i := 0
		for j := range o {
			for P(&acc[i]).cmp(&o[j]) != 0 {
				i++
			}
			P(&acc[i]).add(&o[j])
		}
		return acc
	}
	out := make([]T, 0, len(acc)+fresh)
	i := 0
	for j := range o {
		for i < len(acc) && P(&acc[i]).cmp(&o[j]) < 0 {
			out = append(out, acc[i])
			i++
		}
		if i < len(acc) && P(&acc[i]).cmp(&o[j]) == 0 {
			c := acc[i]
			P(&c).add(&o[j])
			out = append(out, c)
			i++
			continue
		}
		out = append(out, o[j])
	}
	return append(out, acc[i:]...)
}

// subCells differences two ascending lists cell by cell, dropping the
// cells that come out zero.
func subCells[T any, P cell[T]](cur, prev []T) []T {
	var out []T
	j := 0
	for i := range cur {
		d := cur[i]
		for j < len(prev) && P(&prev[j]).cmp(&d) < 0 {
			j++
		}
		if j < len(prev) && P(&prev[j]).cmp(&d) == 0 {
			P(&d).sub(&prev[j])
		}
		if !P(&d).zero() {
			out = append(out, d)
		}
	}
	return out
}
