package core_test

import (
	"testing"
	"time"

	"accelscore/internal/core"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

func irisCfg(trees, depth int, records int64) core.Config {
	return core.Config{DatasetName: "IRIS", Features: 4, Classes: 3, Trees: trees, Depth: depth, Records: records}
}

func higgsCfg(trees, depth int, records int64) core.Config {
	return core.Config{DatasetName: "HIGGS", Features: 28, Classes: 2, Trees: trees, Depth: depth, Records: records}
}

func TestEvaluateCoversAllBackends(t *testing.T) {
	tb := platform.New()
	res := tb.Advisor.Evaluate(higgsCfg(128, 10, 100_000))
	if len(res) != 6 {
		t.Fatalf("expected 6 backends, got %d", len(res))
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s unexpectedly unsupported: %v", r.Name, r.Err)
		}
		if r.Time <= 0 {
			t.Fatalf("%s has non-positive time", r.Name)
		}
	}
}

func TestRAPIDSExcludedOnIris(t *testing.T) {
	tb := platform.New()
	res := tb.Advisor.Evaluate(irisCfg(8, 10, 1000))
	for _, r := range res {
		if r.Name == "GPU_RAPIDS" {
			if r.Err == nil {
				t.Fatal("RAPIDS should reject the 3-class IRIS model")
			}
			return
		}
	}
	t.Fatal("GPU_RAPIDS not evaluated")
}

func TestCPUOptimalAtSmallScale(t *testing.T) {
	tb := platform.New()
	for _, cfg := range []core.Config{
		irisCfg(1, 10, 1), irisCfg(1, 10, 100), irisCfg(128, 10, 1),
		higgsCfg(1, 10, 1), higgsCfg(128, 10, 10),
	} {
		d, err := tb.Advisor.Decide(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Offload {
			t.Fatalf("%v: advisor offloaded at small scale (best=%s)", cfg, d.Best.Name)
		}
		if d.Speedup != 1 {
			t.Fatalf("%v: CPU-optimal speedup = %v, want 1", cfg, d.Speedup)
		}
	}
}

func TestFPGAOptimalAtLargeComplexScale(t *testing.T) {
	tb := platform.New()
	for _, cfg := range []core.Config{irisCfg(128, 10, 1_000_000), higgsCfg(128, 10, 1_000_000)} {
		d, err := tb.Advisor.Decide(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Offload || d.Best.Name != "FPGA" {
			t.Fatalf("%v: best = %s (offload=%v), want FPGA", cfg, d.Best.Name, d.Offload)
		}
	}
}

func TestGPUOptimalForSimpleModelLargeData(t *testing.T) {
	// Fig. 8 / §IV-C1: "for a random forest with a small model (single
	// tree), for larger record counts, the GPU can perform better than the
	// FPGA for IRIS".
	tb := platform.New()
	d, err := tb.Advisor.Decide(irisCfg(1, 10, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Offload || d.Best.Name != "GPU_HB" {
		t.Fatalf("IRIS 1tx1M: best = %s, want GPU_HB", d.Best.Name)
	}
}

// TestHeadlineRatios pins the paper's §I/§IV-C numbers for 1M records,
// 128 trees, depth 10. Shape tolerance is generous — the substrate is a
// simulator — but who-wins and rough magnitudes must hold.
func TestHeadlineRatios(t *testing.T) {
	tb := platform.New()

	// IRIS: FPGA ~54x over best CPU, GPU-HB ~7.5x.
	dIris, err := tb.Advisor.Decide(irisCfg(128, 10, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if dIris.Best.Name != "FPGA" {
		t.Fatalf("IRIS best = %s, want FPGA", dIris.Best.Name)
	}
	if dIris.Speedup < 35 || dIris.Speedup > 80 {
		t.Fatalf("IRIS FPGA speedup = %.1fx, paper reports 54x", dIris.Speedup)
	}
	hbTl, err := tb.HB.Estimate(irisCfg(128, 10, 0).Stats(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	hbSpeedup := float64(dIris.BestCPU.Time) / float64(hbTl.Total())
	if hbSpeedup < 5 || hbSpeedup > 12 {
		t.Fatalf("IRIS GPU-HB speedup = %.1fx, paper reports 7.5x", hbSpeedup)
	}

	// HIGGS: FPGA ~69.7x, GPU-RAPIDS ~16.5x, FPGA/GPU ~4.2x.
	dHiggs, err := tb.Advisor.Decide(higgsCfg(128, 10, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if dHiggs.Best.Name != "FPGA" {
		t.Fatalf("HIGGS best = %s, want FPGA", dHiggs.Best.Name)
	}
	if dHiggs.Speedup < 45 || dHiggs.Speedup > 110 {
		t.Fatalf("HIGGS FPGA speedup = %.1fx, paper reports 69.7x", dHiggs.Speedup)
	}
	rpTl, err := tb.RAPIDS.Estimate(higgsCfg(128, 10, 0).Stats(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rpSpeedup := float64(dHiggs.BestCPU.Time) / float64(rpTl.Total())
	if rpSpeedup < 10 || rpSpeedup > 28 {
		t.Fatalf("HIGGS GPU-RAPIDS speedup = %.1fx, paper reports 16.5x", rpSpeedup)
	}
	fpgaOverGPU := float64(rpTl.Total()) / float64(dHiggs.Best.Time)
	if fpgaOverGPU < 2.5 || fpgaOverGPU > 6.5 {
		t.Fatalf("HIGGS FPGA/GPU ratio = %.1fx, paper reports 4.2x", fpgaOverGPU)
	}
}

func TestWrongDecisionPenalties(t *testing.T) {
	// §I contribution 2: offloading at 1 record costs >=10x latency; not
	// offloading at 1M records costs ~70x throughput.
	tb := platform.New()
	p, err := tb.Advisor.PenaltyAnalysis(higgsCfg(128, 10, 0), 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.WrongOffloadLatency < 5 {
		t.Fatalf("wrong-offload latency penalty = %.1fx, paper reports >=10x", p.WrongOffloadLatency)
	}
	if p.WrongStayThroughput < 45 || p.WrongStayThroughput > 110 {
		t.Fatalf("wrong-stay throughput penalty = %.1fx, paper reports ~70x", p.WrongStayThroughput)
	}
}

func TestCrossoverPointsMatchPaperShape(t *testing.T) {
	tb := platform.New()
	cases := []struct {
		cfg      core.Config
		loBound  int64 // crossover must be at or above
		hiBound  int64 // and at or below
		paperVal string
	}{
		// Paper: IRIS 1 tree ~10K, IRIS 128 trees ~1K, HIGGS 1 tree ~5K,
		// HIGGS 128 trees ~500. Same-decade tolerance.
		{irisCfg(1, 10, 0), 2_000, 200_000, "10K"},
		{irisCfg(128, 10, 0), 50, 5_000, "1K"},
		{higgsCfg(1, 10, 0), 1_000, 100_000, "5K"},
		{higgsCfg(128, 10, 0), 30, 2_000, "500"},
	}
	for _, tc := range cases {
		n, err := tb.Advisor.Crossover(tc.cfg, 1, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if n < tc.loBound || n > tc.hiBound {
			t.Errorf("%v: crossover at %d records, want within [%d, %d] (paper: %s)",
				tc.cfg, n, tc.loBound, tc.hiBound, tc.paperVal)
		}
	}
}

func TestCrossoverMonotoneInComplexity(t *testing.T) {
	// More complex models amortize offload sooner: crossover(128 trees) <
	// crossover(1 tree) on the same dataset (paper §IV-C2).
	tb := platform.New()
	c1, err := tb.Advisor.Crossover(irisCfg(1, 10, 0), 1, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c128, err := tb.Advisor.Crossover(irisCfg(128, 10, 0), 1, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c128 >= c1 {
		t.Fatalf("crossover should shift left with complexity: 128t=%d, 1t=%d", c128, c1)
	}
}

func TestShmooGrid(t *testing.T) {
	tb := platform.New()
	records := []int64{1, 1000, 1_000_000}
	trees := []int{1, 128}
	grid, err := tb.Advisor.Shmoo("IRIS", 4, 3, 10, records, trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 || len(grid[0]) != 2 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	// Top row (1 record): CPU everywhere.
	for _, cell := range grid[0] {
		if cell.Best == "FPGA" || cell.Best == "GPU_HB" || cell.Best == "GPU_RAPIDS" {
			t.Fatalf("1-record cell picked %s", cell.Best)
		}
	}
	// Bottom-right (1M, 128 trees): FPGA.
	if got := grid[2][1].Best; got != "FPGA" {
		t.Fatalf("1Mx128t cell = %s, want FPGA", got)
	}
	if grid[2][1].Speedup < 10 {
		t.Fatalf("1Mx128t speedup = %v", grid[2][1].Speedup)
	}
}

func TestDecompose(t *testing.T) {
	var tl sim.Timeline
	tl.Add("setup", sim.KindOverhead, time.Millisecond)
	tl.Add("xfer", sim.KindTransfer, 2*time.Millisecond)
	tl.Add("compute", sim.KindCompute, 3*time.Millisecond)
	olc := core.Decompose(&tl)
	if olc.O != time.Millisecond || olc.L != 2*time.Millisecond || olc.C != 3*time.Millisecond {
		t.Fatalf("Decompose = %+v", olc)
	}
	if olc.Total() != 6*time.Millisecond {
		t.Fatalf("Total = %v", olc.Total())
	}
}

func TestCrossoverNoOffloadRegion(t *testing.T) {
	// With a tiny search ceiling the CPU wins everywhere -> hi+1 sentinel.
	tb := platform.New()
	n, err := tb.Advisor.Crossover(irisCfg(1, 6, 0), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("no-offload sentinel = %d, want 11", n)
	}
}

func TestMinGainHysteresis(t *testing.T) {
	tb := platform.New()
	// Find the plain crossover, then verify a 1.5x guard band pushes it
	// right and never flips a comfortable decision.
	cfg := higgsCfg(128, 10, 0)
	plain, err := tb.Advisor.Crossover(cfg, 1, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	guarded := *tb.Advisor
	guarded.MinGain = 1.5
	shifted, err := guarded.Crossover(cfg, 1, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if shifted <= plain {
		t.Fatalf("guard band did not shift crossover: %d vs %d", shifted, plain)
	}
	// At the flagship point (80x margin) the guarded advisor still
	// offloads.
	d, err := guarded.Decide(higgsCfg(128, 10, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Offload || d.Best.Name != "FPGA" {
		t.Fatalf("guard band broke a clear-cut decision: %+v", d.Best)
	}
	// Exactly at the plain crossover the guarded advisor stays on the CPU.
	c := cfg
	c.Records = plain
	dg, err := guarded.Decide(c)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Offload {
		t.Fatal("guarded advisor offloaded inside the guard band")
	}
}
