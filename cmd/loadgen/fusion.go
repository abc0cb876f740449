package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"accelscore/internal/harness"
)

// bench is the matrix a fusion preset describes: WHERE pass fractions from
// 1% to all rows, on the CPU engine.
func (p fusionConfig) bench() harness.FusionBenchConfig {
	return harness.FusionBenchConfig{
		Rows:          p.Rows,
		Trees:         p.Trees,
		Depth:         p.Depth,
		Seed:          seed,
		Repeats:       p.Repeats,
		Selectivities: []float64{0.01, 0.1, 0.5, 1},
		JunkCols:      p.JunkCols,
		Backend:       "CPU_SKLearn",
	}
}

// runFusionBench executes the fused-vs-unfused selectivity matrix and writes
// results/fusion_bench.md plus the machine-readable BENCH_fusion.json. The
// harness itself verifies, on every repetition, that fused answers equal
// post-filtering the unfused ones — a divergence aborts with an error before
// any artifact is written, so a published number is always a verified one.
func runFusionBench(p fusionConfig, j *job) error {
	rep, err := harness.RunFusionBench(p.bench())
	if err != nil {
		return err
	}
	for _, ts := range rep.Tables {
		log.Printf("%-7s %2d REAL cols: full convert %-10v pruned %-10v (%.2fx)",
			ts.Table, ts.RealColumns, time.Duration(ts.ConvertFullNS).Round(time.Microsecond),
			time.Duration(ts.ConvertPrunedNS).Round(time.Microsecond), ts.ConvertSpeedup)
	}
	for _, c := range rep.Cells {
		log.Printf("%-7s sel %5.1f%%: scored %5d/%5d  unfused %-10v fused %-10v speedup %.2fx",
			c.Table, 100*c.Selectivity, c.RowsScored, c.RowsScanned,
			time.Duration(c.UnfusedNS).Round(time.Microsecond),
			time.Duration(c.FusedNS).Round(time.Microsecond), c.Speedup)
	}

	return harness.WriteReport(j.json, fusionDoc(j, rep), "fusion_bench.md", fusionMarkdown(j, rep))
}

// fusionDoc assembles the fusion JSON artifact on the common envelope.
func fusionDoc(j *job, rep *harness.FusionBenchReport) map[string]any {
	doc := j.envelope("fusion")
	doc["report"] = rep
	return doc
}

// fusionMarkdown renders the matrix for results/.
func fusionMarkdown(j *job, rep *harness.FusionBenchReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Operator fusion: pushed-down WHERE vs score-all-then-filter\n\n")
	fmt.Fprintf(&sb, "Measured by %s on %s.\n\n", j.ran(), harness.Host())
	fmt.Fprintf(&sb, "Workload: %d-row tables, %d trees x depth %d on %s, caches off "+
		"(every query pays its own table-to-dataset copy and model deserialization), "+
		"median of %d repetitions. The unfused baseline scores every row and filters "+
		"the materialized predictions client-side; the fused query ships the same "+
		"predicate as `@where`, so rows it rejects are never traversed. Every "+
		"repetition checks the two bit-for-bit before its timing counts.\n\n",
		rep.Rows, rep.Trees, rep.Depth, rep.Backend, rep.Repeats)

	sb.WriteString("## Projection pruning (table-to-dataset copy only)\n\n")
	tbl := harness.NewTable(&sb, []harness.Col{
		{"table", "%s"}, {"REAL columns:", "%d"}, {"feature columns:", "%d"},
		{"full conversion:", "%v"}, {"pruned conversion:", "%v"}, {"speedup:", "%.2fx"},
	})
	for _, t := range rep.Tables {
		tbl.Row(t.Table, t.RealColumns, t.FeatureCols,
			time.Duration(t.ConvertFullNS).Round(time.Microsecond),
			time.Duration(t.ConvertPrunedNS).Round(time.Microsecond), t.ConvertSpeedup)
	}
	sb.WriteString("\nThe full-width conversion is what the pre-fusion pipeline would have paid " +
		"per query — and on tables with non-feature REAL columns it could not even feed " +
		"the engines, which reject a feature-count mismatch. Projection makes conversion " +
		"cost a function of the model, not the table. A table keeps its REAL columns in " +
		"one row-major block, so full-width is a `copy` of that block and pruned a gather " +
		"out of it; while cells were 56-byte values (before PR 21) both were cell-by-cell " +
		"conversions and the wide table's ratio read 27.9x.\n\n")

	sb.WriteString("## Predicate pushdown (end-to-end queries)\n\n")
	tbl = harness.NewTable(&sb, []harness.Col{
		{"table", "%s"}, {"selectivity:", "%.0f%%"}, {"rows scored / scanned:", "%s"},
		{"unfused:", "%v"}, {"fused:", "%v"}, {"speedup:", "%.2fx"},
		{"unfused sim:", "%v"}, {"fused sim:", "%v"},
	})
	for _, c := range rep.Cells {
		tbl.Row(c.Table, 100*c.Selectivity, fmt.Sprintf("%d / %d", c.RowsScored, c.RowsScanned),
			time.Duration(c.UnfusedNS).Round(time.Microsecond),
			time.Duration(c.FusedNS).Round(time.Microsecond), c.Speedup,
			time.Duration(c.UnfusedSimNS).Round(time.Microsecond),
			time.Duration(c.FusedSimNS).Round(time.Microsecond))
	}
	sb.WriteString("\nAt low selectivity the fused path wins because the kernel never traverses " +
		"rejected rows — the win tracks the fraction of scoring work skipped. At 100% " +
		"selectivity the fused query does strictly more work (predicate evaluation plus " +
		"the selection bitmap) yet stays within noise of the baseline, because the " +
		"selection build is one branchless pass while traversal costs trees x depth per " +
		"row. The simulated timelines shrink the same way: transfer and pre-processing " +
		"still charge scanned rows, but scoring and post-processing charge only scored " +
		"ones.\n")
	return &sb
}
