package fpga

import (
	"strings"
	"testing"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/sim"
)

func train(t testing.TB, d *dataset.Dataset, trees, depth int, seed uint64) *forest.Forest {
	t.Helper()
	f, err := forest.Train(d, forest.ForestConfig{
		NumTrees:  trees,
		Tree:      forest.TrainConfig{MaxDepth: depth},
		Seed:      seed,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestScoreMatchesForestIris(t *testing.T) {
	f := train(t, dataset.Iris(), 8, 10, 1)
	data := dataset.Iris().Replicate(400)
	e := New(hw.DefaultFPGA())
	res, err := e.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("prediction %d: %d != %d", i, res.Predictions[i], want[i])
		}
	}
}

func TestScoreMatchesForestHiggs(t *testing.T) {
	d := dataset.Higgs(500, 2)
	f := train(t, d, 6, 10, 3)
	e := New(hw.DefaultFPGA())
	res, err := e.Score(&backend.Request{Forest: f, Data: d})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(d)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("HIGGS prediction %d differs", i)
		}
	}
}

func TestMultiPassBeyond128Trees(t *testing.T) {
	// More trees than PEs: "we need to call the inference engine multiple
	// times" (§III-B). Use a small PE count to keep the test fast.
	spec := hw.DefaultFPGA()
	spec.ProcessingElements = 4
	f := train(t, dataset.Iris(), 10, 6, 4) // 10 trees -> 3 passes
	data := dataset.Iris().Head(60)
	e := New(spec)
	res, err := e.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("multi-pass prediction %d differs", i)
		}
	}
	// Timing: 3 passes charge 3x the per-call overheads.
	tl, err := e.Estimate(f.ComputeStats(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Component("software overhead"); got != 3*spec.SoftwareOverhead {
		t.Fatalf("software overhead = %v, want 3 passes worth", got)
	}
}

func TestFig7ComponentsPresent(t *testing.T) {
	e := New(hw.DefaultFPGA())
	tl, err := e.Estimate(forest.SyntheticStats(128, 10, 4, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"input transfer", "FPGA setup", "scoring",
		"completion signal", "result transfer", "software overhead",
	} {
		if tl.Component(name) < 0 {
			t.Fatalf("component %q missing", name)
		}
		found := false
		for _, sp := range tl.Spans() {
			if strings.HasPrefix(sp.Name, name) {
				found = true
			}
		}
		if !found {
			t.Fatalf("component %q not in timeline: %v", name, tl.Spans())
		}
	}
}

func TestOneRecordMillisecondFloor(t *testing.T) {
	// Fig. 7a: scoring one record is ns-scale but the overall time is
	// milliseconds, dominated by input transfer + software overhead.
	e := New(hw.DefaultFPGA())
	tl, err := e.Estimate(forest.SyntheticStats(128, 10, 28, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	total := tl.Total()
	if total < time.Millisecond || total > 5*time.Millisecond {
		t.Fatalf("1-record overall time = %v, want low milliseconds", total)
	}
	if sc := tl.Component("scoring"); sc > time.Microsecond {
		t.Fatalf("1-record scoring = %v, want ns scale", sc)
	}
	dominant := tl.Component("input transfer") + tl.Component("software overhead")
	if float64(dominant)/float64(total) < 0.5 {
		t.Fatalf("input transfer + software overhead = %v of %v, should dominate", dominant, total)
	}
}

func TestMillionRecordScoringDominates(t *testing.T) {
	// Fig. 7b: at 1M records scoring (tens of ms) dominates the offload
	// components.
	e := New(hw.DefaultFPGA())
	tl, err := e.Estimate(forest.SyntheticStats(128, 10, 4, 3), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sc := tl.Component("scoring")
	if sc < 30*time.Millisecond || sc > 50*time.Millisecond {
		t.Fatalf("1M-record scoring = %v, want ~40ms", sc)
	}
	if float64(sc)/float64(tl.Total()) < 0.9 {
		t.Fatalf("scoring %v should dominate total %v", sc, tl.Total())
	}
}

func TestOverheadsIndependentOfModel(t *testing.T) {
	// "FPGA setup, completion signal, and software overhead remain the same
	// as they are independent of the model complexity" (§IV-B).
	e := New(hw.DefaultFPGA())
	small, _ := e.Estimate(forest.SyntheticStats(1, 10, 4, 3), 1000)
	large, _ := e.Estimate(forest.SyntheticStats(128, 10, 28, 2), 1000)
	for _, name := range []string{"FPGA setup", "completion signal", "software overhead"} {
		if small.Component(name) != large.Component(name) {
			t.Fatalf("%q varies with model complexity", name)
		}
	}
	// Input transfer grows with model size.
	if small.Component("input transfer") >= large.Component("input transfer") {
		t.Fatal("input transfer should grow with model size")
	}
}

func TestDepthLimitEnforced(t *testing.T) {
	// Trees deeper than 10 levels "need to be processed by the CPU"
	// (§III-B): without the hybrid fallback the engine refuses.
	d := dataset.Higgs(2000, 9)
	f := train(t, d, 2, 14, 10)
	deep := false
	for _, tr := range f.Trees {
		if tr.Depth() > 10 {
			deep = true
		}
	}
	if !deep {
		t.Skip("training did not produce a deep enough tree")
	}
	e := New(hw.DefaultFPGA())
	if _, err := e.Score(&backend.Request{Forest: f, Data: d.Head(50)}); err == nil {
		t.Fatal("deep tree accepted without hybrid fallback")
	}

	// With the fallback the predictions are exact and the timeline charges
	// the CPU completion stage.
	hybrid := e.WithDeepTreeFallback(hw.DefaultCPU(), 52)
	res, err := hybrid.Score(&backend.Request{Forest: f, Data: d.Head(50)})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(d.Head(50))
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("hybrid prediction %d differs", i)
		}
	}
	if res.Timeline.Component("CPU deep-level completion") <= 0 {
		t.Fatal("hybrid mode did not charge CPU completion")
	}
}

func TestRejectsRegressor(t *testing.T) {
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2, Kind: forest.Regressor, Tree: forest.TrainConfig{MaxDepth: 4}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(hw.DefaultFPGA())
	if _, err := e.Score(&backend.Request{Forest: f, Data: dataset.Iris()}); err == nil {
		t.Fatal("regressor accepted by majority-vote engine")
	}
}

func TestOverlapAblation(t *testing.T) {
	stats := forest.SyntheticStats(1, 10, 28, 2)
	e := New(hw.DefaultFPGA())
	with, _ := e.Estimate(stats, 1_000_000)
	without, _ := e.WithoutOverlap().Estimate(stats, 1_000_000)
	if without.Total() <= with.Total() {
		t.Fatalf("disabling stream overlap should cost time: %v vs %v", without.Total(), with.Total())
	}
}

func TestBRAMSpillAblation(t *testing.T) {
	stats := forest.SyntheticStats(128, 10, 4, 3)
	fit := New(hw.DefaultFPGA())
	// Shrink BRAM below the 2 MB model footprint to force spilling.
	spill := fit.WithBRAMBytes(1 << 20)
	fitTl, _ := fit.Estimate(stats, 1_000_000)
	spillTl, _ := spill.Estimate(stats, 1_000_000)
	ratio := float64(spillTl.Component("scoring")) / float64(fitTl.Component("scoring"))
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("spill penalty ratio = %v, want ~4x", ratio)
	}
}

func TestEstimateMatchesScoreTimeline(t *testing.T) {
	f := train(t, dataset.Iris(), 8, 10, 12)
	data := dataset.Iris().Replicate(250)
	e := New(hw.DefaultFPGA())
	res, err := e.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(f.ComputeStats(), 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.Total() != est.Total() {
		t.Fatalf("Score %v != Estimate %v", res.Timeline.Total(), est.Total())
	}
}

func TestInterruptCostExceedsCSR(t *testing.T) {
	e := New(hw.DefaultFPGA())
	tl, _ := e.Estimate(forest.SyntheticStats(1, 10, 4, 3), 1)
	if tl.Component("FPGA setup") >= tl.Component("completion signal") {
		t.Fatal("CSR setup should cost less than interrupt completion (§IV-B)")
	}
}

func TestTransferKindsTagged(t *testing.T) {
	e := New(hw.DefaultFPGA())
	tl, _ := e.Estimate(forest.SyntheticStats(8, 10, 4, 3), 1000)
	if tl.TotalKind(sim.KindTransfer) <= 0 {
		t.Fatal("no transfer spans tagged")
	}
	if tl.TotalKind(sim.KindOverhead) <= 0 {
		t.Fatal("no overhead spans tagged")
	}
	if tl.TotalKind(sim.KindCompute) <= 0 {
		t.Fatal("no compute spans tagged")
	}
}

func BenchmarkScoreIris10K(b *testing.B) {
	f := train(b, dataset.Iris(), 16, 10, 1)
	data := dataset.Iris().Replicate(10_000)
	e := New(hw.DefaultFPGA())
	req := &backend.Request{Forest: f, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Score(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResultMemoryDrains(t *testing.T) {
	// 1M records x 4B = 4MB of results against a 1MB result memory: four
	// drain DMAs, each paying the fixed cost.
	e := New(hw.DefaultFPGA())
	stats := forest.SyntheticStats(1, 10, 4, 3)
	small, err := e.Estimate(stats, 1000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Estimate(stats, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	spec := hw.DefaultFPGA()
	smallFixed := small.Component("result transfer") - spec.Link.StreamTime(1000*4)
	largeFixed := large.Component("result transfer") - spec.Link.StreamTime(1_000_000*4)
	if smallFixed != spec.ResultTransferFixed {
		t.Fatalf("small batch result fixed cost = %v, want %v", smallFixed, spec.ResultTransferFixed)
	}
	if largeFixed != 4*spec.ResultTransferFixed {
		t.Fatalf("large batch result fixed cost = %v, want 4 drains (%v)", largeFixed, 4*spec.ResultTransferFixed)
	}
}

func TestClusterScalesScoring(t *testing.T) {
	stats := forest.SyntheticStats(128, 10, 28, 2)
	single := New(hw.DefaultFPGA())
	cl4, _ := NewCluster(single, 4)
	one, err := single.Estimate(stats, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	four, err := cl4.Estimate(stats, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Total()) / float64(four.Total())
	// Scoring divides by 4 but per-device overheads (model transfer,
	// software) do not: sublinear but substantial.
	if speedup < 2.5 || speedup > 4 {
		t.Fatalf("4-device speedup = %.2f, want in (2.5, 4)", speedup)
	}
	if four.Component("cluster result merge") <= 0 {
		t.Fatal("merge cost missing")
	}
	// At tiny batches the cluster is no better (overhead-bound).
	oneSmall, _ := single.Estimate(stats, 10)
	fourSmall, _ := cl4.Estimate(stats, 10)
	if fourSmall.Total() < oneSmall.Total() {
		t.Fatalf("cluster should not beat one device at 10 records: %v vs %v",
			fourSmall.Total(), oneSmall.Total())
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(New(hw.DefaultFPGA()), 0); err == nil {
		t.Fatal("zero-device cluster accepted")
	}
	cl, _ := NewCluster(New(hw.DefaultFPGA()), 1)
	cl4, _ := NewCluster(New(hw.DefaultFPGA()), 4)
	if cl.Name() != "FPGA" || cl4.Name() != "FPGAx4" {
		t.Fatalf("cluster names = %s, %s", cl.Name(), cl4.Name())
	}
}
