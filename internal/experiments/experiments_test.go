package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig7Shape(t *testing.T) {
	s := NewSuite()
	rows, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// 2 record counts x 2 datasets x 2 tree counts.
	if len(rows) != 8 {
		t.Fatalf("Fig7 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 || len(r.Components) == 0 {
			t.Fatalf("empty row %+v", r)
		}
		var sum time.Duration
		for _, c := range r.Components {
			sum += c.Duration
		}
		if sum != r.Total {
			t.Fatalf("components sum %v != total %v", sum, r.Total)
		}
	}
	// 1-record rows are ms-scale; 1M rows are dominated by scoring.
	for _, r := range rows {
		if r.Records == 1 && (r.Total < 500*time.Microsecond || r.Total > 10*time.Millisecond) {
			t.Fatalf("1-record total = %v", r.Total)
		}
	}
	out := RenderFig7(rows)
	for _, want := range []string{"input transfer", "software overhead", "IRIS", "HIGGS", "1M"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig7InputTransferGrowsWithModel(t *testing.T) {
	s := NewSuite()
	rows, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// At 1 record, the 128-tree model transfers more than the 1-tree model
	// (§IV-B: "input transfer time increases because we need to transfer
	// larger models").
	var one, many time.Duration
	for _, r := range rows {
		if r.Records == 1 && r.Dataset == "IRIS" {
			for _, c := range r.Components {
				if c.Name == "input transfer" {
					if r.Trees == 1 {
						one = c.Duration
					} else {
						many = c.Duration
					}
				}
			}
		}
	}
	if one == 0 || many == 0 || many <= one {
		t.Fatalf("input transfer: 1 tree %v vs 128 trees %v", one, many)
	}
}

func TestFig8Shape(t *testing.T) {
	s := NewSuite()
	for _, shape := range []DatasetShape{IrisShape, HiggsShape} {
		r, err := s.Fig8(shape)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Cells) != len(RecordSweep) || len(r.Cells[0]) != len(TreeSweep) {
			t.Fatalf("%s grid %dx%d", shape.Name, len(r.Cells), len(r.Cells[0]))
		}
		// Top-left: CPU. Bottom-right: FPGA.
		if got := r.Cells[0][0].Best; !strings.HasPrefix(got, "CPU") {
			t.Fatalf("%s smallest cell = %s", shape.Name, got)
		}
		last := r.Cells[len(RecordSweep)-1][len(TreeSweep)-1]
		if last.Best != "FPGA" {
			t.Fatalf("%s largest cell = %s", shape.Name, last.Best)
		}
		if len(r.GPURow) != len(TreeSweep) {
			t.Fatalf("GPU row length %d", len(r.GPURow))
		}
		out := RenderFig8(r)
		if !strings.Contains(out, "1M, GPU") || !strings.Contains(out, "FPGA") {
			t.Fatalf("render missing rows:\n%s", out)
		}
	}
}

func TestFig8MonotoneDecisionBoundary(t *testing.T) {
	// Within each column, once offload wins it keeps winning as records
	// grow (the regions of Fig. 1 are contiguous).
	s := NewSuite()
	r, err := s.Fig8(HiggsShape)
	if err != nil {
		t.Fatal(err)
	}
	for j := range TreeSweep {
		offloaded := false
		for i := range RecordSweep {
			isAccel := !strings.HasPrefix(r.Cells[i][j].Best, "CPU")
			if offloaded && !isAccel {
				t.Fatalf("column %d: offload regressed at row %d", j, i)
			}
			if isAccel {
				offloaded = true
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	s := NewSuite()
	panels, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 8 {
		t.Fatalf("panels = %d, want 8 (a-h)", len(panels))
	}
	labels := "abcdefgh"
	for i, p := range panels {
		if p.Label != string(labels[i]) {
			t.Fatalf("panel %d label %q", i, p.Label)
		}
		// IRIS panels have 5 curves (no RAPIDS); HIGGS panels have 6.
		want := 5
		if p.Dataset == "HIGGS" {
			want = 6
		}
		if len(p.Curves) != want {
			t.Fatalf("panel %s (%s): %d curves, want %d", p.Label, p.Dataset, len(p.Curves), want)
		}
		// Latency is monotone nondecreasing in records for every backend.
		for _, c := range p.Curves {
			for k := 1; k < len(c.Times); k++ {
				if c.Times[k] < c.Times[k-1] {
					t.Fatalf("panel %s %s: latency decreased from %v to %v",
						p.Label, c.Backend, c.Times[k-1], c.Times[k])
				}
			}
		}
	}
	out := RenderFig9(panels)
	if !strings.Contains(out, "(h) HIGGS, 128 tree(s), 10 levels") {
		t.Fatalf("render missing panel h:\n%s", out[:400])
	}
}

func TestFig10DerivedFromFig9(t *testing.T) {
	s := NewSuite()
	lat, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(thr) != len(lat) {
		t.Fatalf("panel count mismatch")
	}
	// Throughput * latency == records for every defined point.
	for pi := range lat {
		for ci := range lat[pi].Curves {
			for k, d := range lat[pi].Curves[ci].Times {
				if d == 0 {
					continue
				}
				ps := thr[pi].Curves[ci].PerSecond[k]
				back := time.Duration(float64(lat[pi].Records[k]) / ps * float64(time.Second))
				diff := back - d
				if diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("throughput/latency inconsistent at panel %d curve %d point %d: %v vs %v",
						pi, ci, k, back, d)
				}
			}
		}
	}
	out := RenderFig10(thr)
	if !strings.Contains(out, "million scorings/second") {
		t.Fatal("render missing unit header")
	}
}

func TestFig10FPGAPeakThroughput(t *testing.T) {
	// §IV-C3: with 128 trees the FPGA's throughput tops every other
	// backend; at 1M records x 1 tree it reaches hundreds of millions of
	// scorings per second.
	s := NewSuite()
	thr, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range thr {
		if p.Trees != 128 {
			continue
		}
		name, peak := p.PeakThroughput()
		if name != "FPGA" {
			t.Fatalf("panel %s: peak backend = %s", p.Label, name)
		}
		if peak < 10e6 {
			t.Fatalf("panel %s: FPGA peak = %v scorings/s", p.Label, peak)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	s := NewSuite()
	rows, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig11 rows")
	}
	for _, r := range rows {
		var sum time.Duration
		for _, st := range r.Stages {
			sum += st.Duration
		}
		if sum != r.Total {
			t.Fatalf("stage sum %v != total %v", sum, r.Total)
		}
	}
	// The paper's §IV-D observation: ~2.6x end-to-end speedup for 1M HIGGS
	// records with the 128-tree model.
	sp, err := QuerySpeedup(rows, "HIGGS", 128, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.8 || sp > 5 {
		t.Fatalf("HIGGS 1M end-to-end speedup = %.2fx, paper ~2.6x", sp)
	}
	// Small queries see no benefit: at 1 record the CPU row wins.
	sp1, err := QuerySpeedup(rows, "HIGGS", 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp1 > 1.01 {
		t.Fatalf("1-record query speedup = %.2fx, should be <= 1", sp1)
	}
	out := RenderFig11(rows)
	for _, want := range []string{"Python invocation", "data transfer", "model scoring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestHeadlines(t *testing.T) {
	s := NewSuite()
	hs, err := s.Headlines()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 {
		t.Fatalf("headlines = %d", len(hs))
	}
	for _, h := range hs {
		if h.BestBackend != "FPGA" {
			t.Fatalf("%s best backend = %s", h.Dataset, h.BestBackend)
		}
		if h.FPGASpeedup < h.GPUSpeedup {
			t.Fatalf("%s: FPGA (%.1fx) should beat GPU (%.1fx)", h.Dataset, h.FPGASpeedup, h.GPUSpeedup)
		}
		if h.Crossover128Trees >= h.Crossover1Tree {
			t.Fatalf("%s: crossover ordering wrong", h.Dataset)
		}
	}
	// HIGGS uses RAPIDS as best GPU at the flagship point (paper §IV-C3).
	if hs[1].GPUBackend != "GPU_RAPIDS" {
		t.Fatalf("HIGGS best GPU = %s, paper says RAPIDS wins at 1M", hs[1].GPUBackend)
	}
	out := RenderHeadlines(hs)
	if !strings.Contains(out, "paper: 69.7x") {
		t.Fatalf("render missing paper reference:\n%s", out)
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{1: "1", 999: "999", 1000: "1K", 10_000: "10K", 1_000_000: "1M", 1500: "1500"}
	for n, want := range cases {
		if got := formatCount(n); got != want {
			t.Errorf("formatCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func BenchmarkFig9Sweep(b *testing.B) {
	s := NewSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSchedulerExperiment(t *testing.T) {
	s := NewSuite()
	c, err := s.SchedulerExperiment(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Metrics) != 4 {
		t.Fatalf("%d policies", len(c.Metrics))
	}
	byName := map[string]int{}
	for i, m := range c.Metrics {
		byName[m.Policy] = i
	}
	cpu := c.Metrics[byName["static-CPU_SKLearn"]]
	fpga := c.Metrics[byName["static-FPGA"]]
	oracle := c.Metrics[byName["oracle"]]
	aware := c.Metrics[byName["contention-aware"]]
	// Static CPU is catastrophic on a mixed workload; static FPGA pays the
	// small-query penalty relative to the oracle; contention-aware is at
	// least as good as the oracle.
	if cpu.MeanLatency < 100*fpga.MeanLatency {
		t.Fatalf("static CPU mean %v not clearly worse than FPGA %v", cpu.MeanLatency, fpga.MeanLatency)
	}
	if fpga.P50 < 2*oracle.P50 {
		t.Fatalf("static FPGA p50 %v should pay the small-query penalty vs oracle %v", fpga.P50, oracle.P50)
	}
	if aware.MeanLatency > oracle.MeanLatency {
		t.Fatalf("contention-aware %v worse than oracle %v", aware.MeanLatency, oracle.MeanLatency)
	}
	out := RenderScheduler(c)
	if !strings.Contains(out, "contention-aware") {
		t.Fatal("render missing policy")
	}
}

func TestLogCAExperiment(t *testing.T) {
	s := NewSuite()
	fits, err := s.LogCAExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("%d fits", len(fits))
	}
	byName := map[string]LogCAFit{}
	for _, f := range fits {
		byName[f.Backend] = f
	}
	// The analytical g1 should land near the simulator's measured ~500
	// crossover for the FPGA, and RAPIDS's g1 must be far larger due to the
	// cuDF conversion overhead.
	fpga := byName["FPGA"]
	if !fpga.G1OK || fpga.G1 < 100 || fpga.G1 > 5000 {
		t.Fatalf("FPGA g1 = %d", fpga.G1)
	}
	rapids := byName["GPU_RAPIDS"]
	if !rapids.G1OK || rapids.G1 < 10*fpga.G1 {
		t.Fatalf("RAPIDS g1 = %d should dwarf FPGA's %d", rapids.G1, fpga.G1)
	}
	// Asymptotic ordering mirrors the simulators: FPGA > RAPIDS > HB.
	if !(fpga.Asymptotic > byName["GPU_RAPIDS"].Asymptotic &&
		byName["GPU_RAPIDS"].Asymptotic > byName["GPU_HB"].Asymptotic) {
		t.Fatalf("asymptotic ordering wrong: %+v", fits)
	}
	out := RenderLogCA(fits)
	if !strings.Contains(out, "asym speedup") {
		t.Fatal("render missing header")
	}
}

func TestSensitivityRobustness(t *testing.T) {
	s := NewSuite()
	rows, err := s.Sensitivity([]float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 parameters x 3 scales
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's flagship conclusion must survive 2x perturbations of
		// every uncertain constant: FPGA remains the best backend with a
		// large margin.
		if r.Best != "FPGA" {
			t.Fatalf("%s x%.2g: best backend flipped to %s", r.Parameter, r.Scale, r.Best)
		}
		if r.FPGASpeedup < 20 {
			t.Fatalf("%s x%.2g: FPGA speedup collapsed to %.1fx", r.Parameter, r.Scale, r.FPGASpeedup)
		}
		// The crossover stays within the sub-10K regime the paper reports.
		if r.Crossover < 20 || r.Crossover > 20_000 {
			t.Fatalf("%s x%.2g: crossover = %d", r.Parameter, r.Scale, r.Crossover)
		}
	}
	out := RenderSensitivity(rows)
	if !strings.Contains(out, "FPGA speedup") {
		t.Fatal("render missing header")
	}
}

func TestReportAllInBand(t *testing.T) {
	s := NewSuite()
	md, rows, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("%d report rows", len(rows))
	}
	for _, r := range rows {
		if !r.WithinBand {
			t.Errorf("out of band: %s = %s (paper %s)", r.Quantity, r.Measured, r.Paper)
		}
	}
	if !strings.Contains(md, "All quantities within the reproduction bands.") {
		t.Fatalf("report verdict wrong:\n%s", md)
	}
	if !strings.Contains(md, "| IRIS FPGA speedup | 54x |") {
		t.Fatal("report table malformed")
	}
}

func TestFig1ConceptGrid(t *testing.T) {
	s := NewSuite()
	r, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 || len(r.Cells[0]) != 4 {
		t.Fatalf("grid %dx%d", len(r.Cells), len(r.Cells[0]))
	}
	// Paper Fig. 1 structure: CPU across the top rows, GPU bottom-left,
	// FPGA for complex models at large data sizes.
	for j := range r.Cells[0] {
		if r.Cells[0][j] != "CPU" {
			t.Fatalf("smallest-data row cell %d = %s", j, r.Cells[0][j])
		}
	}
	bottom := r.Cells[len(r.Cells)-1]
	if bottom[0] != "GPU" {
		t.Fatalf("bottom-left = %s, paper shows GPU", bottom[0])
	}
	if bottom[len(bottom)-1] != "FPGA" {
		t.Fatalf("bottom-right = %s, paper shows FPGA", bottom[len(bottom)-1])
	}
	// Only valid labels.
	for _, row := range r.Cells {
		for _, c := range row {
			if c != "CPU" && c != "GPU" && c != "FPGA" {
				t.Fatalf("invalid cell %q", c)
			}
		}
	}
	out := RenderFig1(r)
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "FPGA") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestScaleOut(t *testing.T) {
	s := NewSuite()
	fpgaRows, cpuRows, err := s.ScaleOut()
	if err != nil {
		t.Fatal(err)
	}
	if len(fpgaRows) != 4 || len(cpuRows) != 7 {
		t.Fatalf("rows = %d/%d", len(fpgaRows), len(cpuRows))
	}
	// Throughput is monotone in device/thread count, with sublinear scaling.
	for i := 1; i < len(fpgaRows); i++ {
		if fpgaRows[i].Throughput <= fpgaRows[i-1].Throughput {
			t.Fatalf("FPGA scaling not monotone at %s", fpgaRows[i].Label)
		}
	}
	scaling8 := fpgaRows[3].Throughput / fpgaRows[0].Throughput
	if scaling8 < 4 || scaling8 >= 8 {
		t.Fatalf("8-device scaling = %.2fx, want sublinear in [4, 8)", scaling8)
	}
	for i := 1; i < len(cpuRows); i++ {
		if cpuRows[i].Throughput <= cpuRows[i-1].Throughput {
			t.Fatalf("CPU scaling not monotone at %s", cpuRows[i].Label)
		}
	}
	cpuScaling := cpuRows[len(cpuRows)-1].Throughput / cpuRows[0].Throughput
	if cpuScaling < 15 || cpuScaling > 35 {
		t.Fatalf("52-thread scaling = %.2fx, want ~26x (the calibrated efficiency)", cpuScaling)
	}
	out := RenderScaleOut(fpgaRows, cpuRows)
	if !strings.Contains(out, "FPGAx8") || !strings.Contains(out, "52 threads") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}
