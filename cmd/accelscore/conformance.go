package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"accelscore/internal/conformance"
	"accelscore/internal/experiments"
)

// runConformance runs the cross-engine differential conformance matrix and
// the golden-figure regression comparison (or, with -bless, re-blesses the
// goldens).
//
// The matrix checks every registered engine — CPU_SKLearn, both CPU_ONNX
// variants, GPU_RAPIDS, GPU_HB, the FPGA and its hybrid deep-tree variant —
// against a double-precision reference oracle over seeded random forests
// and datasets, plus metamorphic and timing invariants and the end-to-end
// sp_score_model pipeline. The golden comparison regenerates figures
// 1/7/8/9/10/11 and diffs them against the blessed CSVs. Any failure is
// exit status 1.
func runConformance(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("conformance", stderr)
	short := fs.Bool("short", false, "run the reduced CI matrix (smaller models and sweeps)")
	bless := fs.Bool("bless", false, "regenerate and overwrite the blessed golden figures, then exit")
	golden := fs.String("golden", "results/golden", "blessed golden-figure directory")
	report := fs.String("report", "", "also write the report to this file")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *bless {
		if err := experiments.NewSuite().WriteGoldenDir(*golden); err != nil {
			return fmt.Errorf("blessing goldens: %w", err)
		}
		fmt.Fprintf(stdout, "Blessed golden figures into %s\n", *golden)
		return nil
	}

	var out strings.Builder
	failed := false

	cases, err := conformance.Cases(*short)
	if err != nil {
		return fmt.Errorf("building cases: %w", err)
	}
	rep, err := conformance.NewRunner().Run(cases)
	if err != nil {
		return fmt.Errorf("running matrix: %w", err)
	}
	out.WriteString(rep.Summary())
	if !rep.OK() {
		failed = true
	}

	out.WriteString("\nGolden figures: ")
	diffs, err := experiments.NewSuite().CompareGoldenDir(*golden)
	switch {
	case err != nil:
		fmt.Fprintf(&out, "comparison failed: %v\n", err)
		failed = true
	case len(diffs) > 0:
		fmt.Fprintf(&out, "%d divergence(s) from %s:\n", len(diffs), *golden)
		for _, d := range diffs {
			fmt.Fprintf(&out, "  %s\n", d)
		}
		failed = true
	default:
		fmt.Fprintf(&out, "match %s\n", *golden)
	}

	fmt.Fprint(stdout, out.String())
	if *report != "" {
		if err := os.WriteFile(*report, []byte(out.String()), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	if failed {
		return errFailed
	}
	return nil
}
