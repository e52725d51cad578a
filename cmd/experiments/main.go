// Command experiments regenerates the paper's evaluation: every table
// and figure from "Demystifying and Mitigating TCP Stalls at the
// Server Side" (CoNEXT 2015), computed over a synthetic dataset
// produced by the workload models.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-flows N] [-only LIST]
//
// -only selects a comma-separated subset, e.g.
// "table1,figure3,table8". Default: every paper table and figure.
// Two S-RTO ablations run only when named: "srtosweep" (T1, T2 and
// probe-timer multiple sweeps) and "strategies" (all five recovery
// strategies on one workload); both use -seed and -abflows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tcpstall/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 20141222, "root RNG seed")
	scale := flag.Float64("scale", 0.5, "dataset size multiplier")
	flows := flag.Int("flows", 0, "fixed per-service flow count (overrides -scale)")
	abFlows := flag.Int("abflows", 400, "flows per strategy for Tables 8/9 and the S-RTO ablations")
	workers := flag.Int("workers", 0, "simulation/analysis worker count (0: one per CPU)")
	only := flag.String("only", "", "comma-separated experiment subset (e.g. table1,figure3)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	needDataset := false
	for _, k := range []string{"table1", "figure1", "figure3", "table3", "figure6",
		"table4", "table5", "figure7", "table6", "figure10", "table7", "figure11", "figure12"} {
		if sel(k) {
			needDataset = true
			break
		}
	}

	var ds []*experiments.Dataset
	if needDataset {
		fmt.Fprintf(os.Stderr, "generating dataset (seed=%d scale=%.2f flows=%d workers=%d)...\n", *seed, *scale, *flows, *workers)
		ds = experiments.BuildAll(experiments.Options{Seed: *seed, Scale: *scale, FlowsOverride: *flows, Workers: *workers})
	}

	if needDataset && sel("table1") {
		_, out := experiments.Table1(ds)
		fmt.Println(out)
	}
	if needDataset && sel("figure1") {
		_, _, _, out := experiments.Figure1(ds)
		fmt.Println(out)
	}
	if sel("figure2") {
		_, out := experiments.Figure2(*seed)
		fmt.Println(out)
	}
	if needDataset {
		if sel("figure3") {
			_, out := experiments.Figure3(ds)
			fmt.Println(out)
		}
		if sel("table3") {
			_, out := experiments.Table3(ds)
			fmt.Println(out)
		}
		if sel("figure6") {
			_, out := experiments.Figure6(ds)
			fmt.Println(out)
		}
		if sel("table4") {
			_, out := experiments.Table4(ds)
			fmt.Println(out)
		}
		if sel("table5") {
			_, out := experiments.Table5(ds)
			fmt.Println(out)
		}
		if sel("figure7") {
			_, _, out := experiments.Figure7(ds)
			fmt.Println(out)
		}
		if sel("table6") {
			_, out := experiments.Table6(ds)
			fmt.Println(out)
		}
		if sel("figure10") {
			_, _, out := experiments.Figure10(ds)
			fmt.Println(out)
		}
		if sel("table7") {
			_, out := experiments.Table7(ds)
			fmt.Println(out)
		}
		if sel("figure11") {
			_, out := experiments.Figure11(ds)
			fmt.Println(out)
		}
		if sel("figure12") {
			_, out := experiments.Figure12(ds)
			fmt.Println(out)
		}
	}
	if sel("table8") {
		fmt.Fprintln(os.Stderr, "running strategy A/B for Table 8...")
		_, out := experiments.Table8(*seed, *abFlows, *abFlows)
		fmt.Println(out)
	}
	if sel("table9") {
		fmt.Fprintln(os.Stderr, "running strategy A/B for Table 9...")
		_, out := experiments.Table9(*seed, *abFlows, *abFlows/2)
		fmt.Println(out)
	}
	if sel("floorregime") {
		fmt.Fprintln(os.Stderr, "running floor-regime A/B...")
		_, out := experiments.FloorRegimeComparison(*seed, *abFlows)
		fmt.Println(out)
	}
	if sel("throughput") {
		_, out := experiments.LargeFlowThroughput(*seed, *abFlows/2)
		fmt.Println(out)
	}
	if sel("validate") {
		fmt.Fprintln(os.Stderr, "running ground-truth differential validation...")
		_, out := experiments.ValidationTable(experiments.Options{
			Seed: *seed, Scale: *scale, FlowsOverride: *flows, Workers: *workers,
		})
		fmt.Println(out)
	}
	// The ablations are not paper tables: they run only when named.
	if want["srtosweep"] {
		_, out := experiments.SRTOSweep(*seed, *abFlows)
		fmt.Println(out)
	}
	if want["strategies"] {
		_, out := experiments.StrategyComparison(*seed, *abFlows)
		fmt.Println(out)
	}
}
