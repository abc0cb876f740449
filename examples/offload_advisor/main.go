// Offload advisor: reproduce the paper's central question — "is hardware
// acceleration worth the overheads?" — for a HIGGS-shaped workload. The
// advisor evaluates every backend's predicted overall scoring time across
// record counts and reports when offloading starts to pay, the crossover
// record count, and the cost of deciding wrongly.
//
// Run with:
//
//	go run ./examples/offload_advisor
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"accelscore/internal/core"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

func main() {
	tb := platform.New()

	// A HIGGS-shaped scoring workload: 128 trees, depth 10, 28 features.
	shape := core.Config{
		DatasetName: "HIGGS", Features: 28, Classes: 2,
		Trees: 128, Depth: 10,
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "records\tbest backend\tlatency\tspeedup vs best CPU")
	for _, n := range []int64{1, 100, 1_000, 10_000, 100_000, 1_000_000} {
		cfg := shape
		cfg.Records = n
		d, err := tb.Advisor.Decide(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%.1fx\n",
			n, d.Best.Name, sim.FormatDuration(d.Best.Time), d.Speedup)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	cross, err := tb.Advisor.Crossover(shape, 1, 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noffload becomes beneficial at %d records\n", cross)

	pen, err := tb.Advisor.PenaltyAnalysis(shape, 1, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrong decision to offload at %d record(s): %.1fx higher latency\n",
		pen.SmallRecords, pen.WrongOffloadLatency)
	fmt.Printf("wrong decision to stay on CPU at %d records: %.1fx lower throughput\n",
		pen.LargeRecords, pen.WrongStayThroughput)

	// Show the O/L/C decomposition (Fig. 6) for the FPGA at both extremes.
	for _, n := range []int64{1, 1_000_000} {
		tl, err := tb.FPGA.Estimate(core.Config{
			Features: 28, Classes: 2, Trees: 128, Depth: 10,
		}.Stats(), n)
		if err != nil {
			log.Fatal(err)
		}
		olc := core.Decompose(tl)
		fmt.Printf("\nFPGA at %d record(s): O=%s L=%s C=%s (total %s)\n",
			n, sim.FormatDuration(olc.O), sim.FormatDuration(olc.L),
			sim.FormatDuration(olc.C), sim.FormatDuration(olc.Total()))
	}
}
