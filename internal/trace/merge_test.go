package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
)

// sortedOrder is the reference timeline: every record of every flow,
// sorted by (time, flow, position).
func sortedOrder(flows []*Flow) func() (flow, rec int, ok bool) {
	type item struct {
		t         sim.Time
		flow, rec int
	}
	var items []item
	for fi, f := range flows {
		for ri, r := range f.Records {
			items = append(items, item{r.T, fi, ri})
		}
	}
	slices.SortFunc(items, func(a, b item) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.flow, b.flow), cmp.Compare(a.rec, b.rec))
	})
	return func() (int, int, bool) {
		if len(items) == 0 {
			return 0, 0, false
		}
		it := items[0]
		items = items[1:]
		return it.flow, it.rec, true
	}
}

// mergeFlow builds a flow whose records sit at the given instants (in
// milliseconds), each with a distinct sequence number.
func mergeFlow(id string, ms ...int) *Flow {
	f := &Flow{ID: id}
	for i, m := range ms {
		dir := DirOut
		if i%2 == 1 {
			dir = DirIn
		}
		f.Records = append(f.Records, Record{
			T:   sim.Time(time.Duration(m) * time.Millisecond),
			Dir: dir,
			Seg: Segment{Flags: packet.FlagACK, Seq: uint32(1000*len(id) + i), Len: 100 * (i % 3), Wnd: 65535},
		})
	}
	return f
}

// TestExportMergeOrder pins the export's timeline to the sort it
// replaced: a flow whose times go backward, same-instant records
// across flows and within one, and empty flows must all export
// byte-identical to the (time, flow, position) sort.
func TestExportMergeOrder(t *testing.T) {
	cases := map[string][]*Flow{
		"backward and ties": {
			mergeFlow("a", 5, 3, 3, 7, 1, 5),
			mergeFlow("bb", 1, 3, 3, 5, 7),
			{ID: "empty"},
			mergeFlow("ccc", 3, 3, 3),
			mergeFlow("dddd", 9, 0),
		},
		"one flow": {mergeFlow("a", 2, 1, 0)},
		"none":     {},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 7, 40} {
		var flows []*Flow
		for fi := 0; fi < n; fi++ {
			ms := make([]int, rng.Intn(30))
			for i := range ms {
				ms[i] = rng.Intn(20)
			}
			if fi%3 != 0 {
				slices.Sort(ms) // most flows run forward
			}
			flows = append(flows, mergeFlow(fmt.Sprint(fi), ms...))
		}
		cases[fmt.Sprintf("random %d flows", n)] = flows
	}
	for name, flows := range cases {
		t.Run(name, func(t *testing.T) {
			for _, snaplen := range []uint32{0, 60} {
				cfg := ExportConfig{Snaplen: snaplen}
				var got, want bytes.Buffer
				if err := ExportPcap(&got, flows, cfg); err != nil {
					t.Fatal(err)
				}
				if err := exportOrdered(&want, flows, cfg, sortedOrder(flows)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("snaplen %d: the merged export differs from the sorted one", snaplen)
				}
			}
		})
	}
}
