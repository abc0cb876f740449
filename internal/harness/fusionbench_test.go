package harness_test

import (
	"math"
	"testing"

	"accelscore/internal/harness"
)

// A small matrix must complete, verify, and produce a full set of cells with
// sane row accounting.
func TestRunFusionBenchSmall(t *testing.T) {
	cfg := harness.FusionBenchConfig{
		Rows:          256,
		Trees:         8,
		Depth:         6,
		Seed:          1,
		Repeats:       1,
		Selectivities: []float64{0.1, 1.0},
		JunkCols:      6,
		Backend:       "CPU_SKLearn",
	}
	rep, err := harness.RunFusionBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(cfg.Selectivities); len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.RowsScanned != cfg.Rows {
			t.Errorf("%s@%g: scanned %d rows, want %d", c.Table, c.Selectivity, c.RowsScanned, cfg.Rows)
		}
		want := int(math.Ceil(c.Selectivity * float64(cfg.Rows)))
		if c.RowsScored != want {
			t.Errorf("%s@%g: scored %d rows, want %d", c.Table, c.Selectivity, c.RowsScored, want)
		}
		if c.FusedNS <= 0 || c.UnfusedNS <= 0 || c.Speedup <= 0 {
			t.Errorf("%s@%g: missing timings: fused=%d unfused=%d speedup=%g",
				c.Table, c.Selectivity, c.FusedNS, c.UnfusedNS, c.Speedup)
		}
	}
}
