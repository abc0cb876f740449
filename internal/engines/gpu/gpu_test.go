package gpu

import (
	"math"
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

func TestHummingbirdPTTMatchesForest(t *testing.T) {
	f := train(t, dataset.Iris(), 8, 10, 1)
	data := dataset.Iris().Replicate(400)
	hb := NewHummingbird(hw.DefaultGPU())
	res, err := hb.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("PTT prediction %d: %d != %d", i, res.Predictions[i], want[i])
		}
	}
}

func TestHummingbirdGEMMMatchesForest(t *testing.T) {
	// Depth <= 3 uses the dense GEMM tensor strategy.
	f := train(t, dataset.Iris(), 6, 3, 2)
	data := dataset.Iris().Replicate(200)
	hb := NewHummingbird(hw.DefaultGPU())
	res, err := hb.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("GEMM prediction %d: %d != %d", i, res.Predictions[i], want[i])
		}
	}
}

func TestHummingbirdHiggs(t *testing.T) {
	d := dataset.Higgs(800, 5)
	f := train(t, d, 6, 8, 3)
	hb := NewHummingbird(hw.DefaultGPU())
	res, err := hb.Score(&backend.Request{Forest: f, Data: d})
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

func TestHummingbirdAnchor(t *testing.T) {
	// 1M x 128 trees x 10 levels: ~291 ms kernels -> total < 300ms-ish,
	// giving the paper's 7.5x over the 2.4s CPU baseline.
	hb := NewHummingbird(hw.DefaultGPU())
	tl, err := hb.Estimate(forest.SyntheticStats(128, 10, 4, 3), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Total(); got < 250*time.Millisecond || got > 350*time.Millisecond {
		t.Fatalf("HB 1Mx128t = %v, want ~295ms", got)
	}
}

func TestHummingbirdOverlapAblation(t *testing.T) {
	stats := forest.SyntheticStats(1, 10, 28, 2)
	hb := NewHummingbird(hw.DefaultGPU())
	with, _ := hb.Estimate(stats, 1_000_000)
	without, _ := hb.WithoutOverlap().Estimate(stats, 1_000_000)
	if without.Total() <= with.Total() {
		t.Fatalf("disabling overlap should cost time: %v vs %v", without.Total(), with.Total())
	}
}

func TestHummingbirdRejectsRegressor(t *testing.T) {
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2, Kind: forest.Regressor, Tree: forest.TrainConfig{MaxDepth: 4}, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := NewHummingbird(hw.DefaultGPU())
	if _, err := hb.Score(&backend.Request{Forest: f, Data: dataset.Iris()}); err == nil {
		t.Fatal("regressor accepted")
	}
}

func TestRAPIDSMatchesForestOnHiggs(t *testing.T) {
	d := dataset.Higgs(600, 6)
	f := train(t, d, 8, 10, 5)
	r := NewRAPIDS(hw.DefaultGPU())
	res, err := r.Score(&backend.Request{Forest: f, Data: d})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(d)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("RAPIDS prediction %d differs", i)
		}
	}
}

func TestRAPIDSRejectsMulticlass(t *testing.T) {
	// FIL supported binary classification only — the reason the paper runs
	// RAPIDS on HIGGS but not IRIS.
	f := train(t, dataset.Iris(), 2, 4, 6)
	r := NewRAPIDS(hw.DefaultGPU())
	if _, err := r.Score(&backend.Request{Forest: f, Data: dataset.Iris()}); err == nil {
		t.Fatal("3-class model accepted by RAPIDS")
	}
	if _, err := r.Estimate(forest.SyntheticStats(1, 4, 4, 3), 100); err == nil {
		t.Fatal("3-class estimate accepted by RAPIDS")
	}
}

func TestRAPIDSConversionDominatesSmallBatches(t *testing.T) {
	r := NewRAPIDS(hw.DefaultGPU())
	tl, err := r.Estimate(forest.SyntheticStats(1, 10, 28, 2), 100)
	if err != nil {
		t.Fatal(err)
	}
	conv := tl.Component("cuDF conversion")
	if conv < 100*time.Millisecond {
		t.Fatalf("cuDF conversion = %v, want ~120ms", conv)
	}
	if frac := float64(conv) / float64(tl.Total()); frac < 0.9 {
		t.Fatalf("conversion should dominate small batches, got %.0f%%", frac*100)
	}
}

func TestRAPIDSConvertAblation(t *testing.T) {
	stats := forest.SyntheticStats(128, 10, 28, 2)
	r := NewRAPIDS(hw.DefaultGPU())
	with, _ := r.Estimate(stats, 10_000)
	without, _ := r.WithoutConvertCost().Estimate(stats, 10_000)
	if with.Total()-without.Total() < 100*time.Millisecond {
		t.Fatalf("convert ablation delta = %v, want ~120ms", with.Total()-without.Total())
	}
}

func TestRAPIDSBeatsHBOnlyAtLargeN(t *testing.T) {
	// Paper §IV-C2: RAPIDS passes Hummingbird above ~700K records for the
	// 128-tree HIGGS model.
	stats := forest.SyntheticStats(128, 10, 28, 2)
	hb := NewHummingbird(hw.DefaultGPU())
	r := NewRAPIDS(hw.DefaultGPU())

	hbSmall, _ := hb.Estimate(stats, 100_000)
	rSmall, _ := r.Estimate(stats, 100_000)
	if hbSmall.Total() >= rSmall.Total() {
		t.Fatalf("at 100K records HB (%v) should beat RAPIDS (%v)", hbSmall.Total(), rSmall.Total())
	}
	hbBig, _ := hb.Estimate(stats, 1_000_000)
	rBig, _ := r.Estimate(stats, 1_000_000)
	if rBig.Total() >= hbBig.Total() {
		t.Fatalf("at 1M records RAPIDS (%v) should beat HB (%v)", rBig.Total(), hbBig.Total())
	}
}

func TestEstimateMatchesScoreTimeline(t *testing.T) {
	d := dataset.Higgs(300, 8)
	f := train(t, d, 4, 8, 9)
	stats := f.ComputeStats()
	for _, b := range []backend.Backend{NewHummingbird(hw.DefaultGPU()), NewRAPIDS(hw.DefaultGPU())} {
		res, err := b.Score(&backend.Request{Forest: f, Data: d})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		est, err := b.Estimate(stats, 300)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timeline.Total() != est.Total() {
			t.Fatalf("%s: Score %v != Estimate %v", b.Name(), res.Timeline.Total(), est.Total())
		}
	}
}

func TestKernelStrategyNames(t *testing.T) {
	hb := NewHummingbird(hw.DefaultGPU())
	shallow, _ := hb.Estimate(forest.SyntheticStats(4, 3, 4, 3), 100)
	deep, _ := hb.Estimate(forest.SyntheticStats(4, 10, 4, 3), 100)
	names := func(tl *sim.Timeline) string {
		var b strings.Builder
		for _, sp := range tl.Spans() {
			b.WriteString(sp.Name + ",")
		}
		return b.String()
	}
	if !strings.Contains(names(shallow), "GEMM") {
		t.Fatalf("shallow model should use GEMM kernels: %s", names(shallow))
	}
	if !strings.Contains(names(deep), "PTT") {
		t.Fatalf("deep model should use PTT kernels: %s", names(deep))
	}
}

func BenchmarkHummingbirdScoreHiggs(b *testing.B) {
	d := dataset.Higgs(2000, 1)
	f := train(b, d, 8, 10, 1)
	hb := NewHummingbird(hw.DefaultGPU())
	req := &backend.Request{Forest: f, Data: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hb.Score(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKernelProfilesMatchPaperObservations(t *testing.T) {
	// §IV-C1 nvprof analysis: HB has near-100% warp/SM efficiency, much
	// higher than RAPIDS; HB executes more instructions and moves more
	// L2/DRAM traffic; memory-dependency stalls dominate for both.
	hb := NewHummingbird(hw.DefaultGPU())
	rp := NewRAPIDS(hw.DefaultGPU())
	stats := forest.SyntheticStats(128, 10, 28, 2)
	const records = 1_000_000

	hp := hb.Profile(stats, records)
	rpp := rp.Profile(stats, records)

	if hp.WarpEfficiency < 0.95 {
		t.Fatalf("HB warp efficiency = %v, want ~1", hp.WarpEfficiency)
	}
	if rpp.WarpEfficiency >= hp.WarpEfficiency {
		t.Fatalf("RAPIDS warp efficiency %v should be below HB's %v",
			rpp.WarpEfficiency, hp.WarpEfficiency)
	}
	if hp.Instructions <= rpp.Instructions {
		t.Fatalf("HB instructions %d should exceed RAPIDS %d (redundant computation)",
			hp.Instructions, rpp.Instructions)
	}
	if hp.DRAMTrafficBytes <= rpp.DRAMTrafficBytes {
		t.Fatalf("HB DRAM traffic %d should exceed RAPIDS %d",
			hp.DRAMTrafficBytes, rpp.DRAMTrafficBytes)
	}
	if hp.DominantStall() != "memory dependency" || rpp.DominantStall() != "memory dependency" {
		t.Fatalf("dominant stalls = %q / %q, want memory dependency",
			hp.DominantStall(), rpp.DominantStall())
	}
	if rpp.KernelLaunches <= hp.KernelLaunches {
		t.Fatalf("RAPIDS launches %d should exceed HB %d (many invocations)",
			rpp.KernelLaunches, hp.KernelLaunches)
	}
}

func TestRAPIDSDivergenceGrowsWithComplexity(t *testing.T) {
	// "this may get exacerbated with increasing model complexity": warp
	// efficiency drops as trees are added and as paths get more uneven.
	rp := NewRAPIDS(hw.DefaultGPU())
	simple := rp.Profile(forest.SyntheticStats(1, 10, 28, 2), 10000)
	complexModel := rp.Profile(forest.SyntheticStats(128, 10, 28, 2), 10000)
	if complexModel.WarpEfficiency >= simple.WarpEfficiency {
		t.Fatalf("warp efficiency should drop with complexity: %v vs %v",
			complexModel.WarpEfficiency, simple.WarpEfficiency)
	}
	// Uneven paths (avg < max) diverge more than full trees.
	uneven := forest.Stats{Trees: 8, MaxDepth: 10, AvgPathLength: 5, Features: 28, Classes: 2}
	full := forest.SyntheticStats(8, 10, 28, 2)
	if rp.Profile(uneven, 10000).WarpEfficiency >= rp.Profile(full, 10000).WarpEfficiency {
		t.Fatal("uneven paths should diverge more than full trees")
	}
}

func TestDeviceMemoryBatching(t *testing.T) {
	// 200M HIGGS records x 28 features x 4B = ~21 GB > the P100's usable
	// memory: both GPU libraries must charge batching overhead; a 1M-record
	// input must not.
	stats := forest.SyntheticStats(8, 10, 28, 2)
	hb := NewHummingbird(hw.DefaultGPU())
	rp := NewRAPIDS(hw.DefaultGPU())

	small, err := hb.Estimate(stats, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Component("device-memory batching") != 0 {
		t.Fatal("1M records should fit device memory")
	}
	huge, err := hb.Estimate(stats, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if huge.Component("device-memory batching") <= 0 {
		t.Fatal("oversized input not batched on HB")
	}
	hugeRp, err := rp.Estimate(stats, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if hugeRp.Component("device-memory batching") <= 0 {
		t.Fatal("oversized input not batched on RAPIDS")
	}
	// The spec arithmetic: 21GB over 12GB usable -> 2 batches.
	g := hw.DefaultGPU()
	if got := g.InputBatches(200_000_000 * 28 * 4); got != 2 {
		t.Fatalf("InputBatches = %d, want 2", got)
	}
	if got := g.InputBatches(100); got != 1 {
		t.Fatalf("small InputBatches = %d", got)
	}
}

// TestPTTPaddingHandlesNonFiniteFeatures is the regression test for the
// padded-leaf bug: a leaf above the final PTT level used to be padded with a
// left-only dummy chain (attr 0, x < +Inf), so a NaN or +Inf value in
// feature 0 failed the comparison, descended into the zero-initialized right
// half, and silently scored class 0. Both dummy subtrees must carry the
// leaf.
func TestPTTPaddingHandlesNonFiniteFeatures(t *testing.T) {
	// Root splits on feature 1; its LEFT child is a shallow class-1 leaf,
	// its right side is a depth-4 chain so the forest exceeds the GEMM depth
	// limit and compiles with the PTT strategy.
	leaf := func(c int) *forest.Node { return &forest.Node{Class: c} }
	deep := &forest.Node{Feature: 0, Threshold: 0,
		Left: leaf(0),
		Right: &forest.Node{Feature: 0, Threshold: 1,
			Left: leaf(0),
			Right: &forest.Node{Feature: 0, Threshold: 2,
				Left: leaf(0), Right: leaf(1)}}}
	f := &forest.Forest{
		Kind:        forest.Classifier,
		NumFeatures: 2,
		NumClasses:  2,
		Trees: []*forest.Tree{{
			Root:        &forest.Node{Feature: 1, Threshold: 0.5, Left: leaf(1), Right: deep},
			NumFeatures: 2,
			NumClasses:  2,
		}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	data := &dataset.Dataset{
		Name:         "nonfinite",
		FeatureNames: []string{"f0", "f1"},
		ClassNames:   []string{"c0", "c1"},
		// Every row routes LEFT at the root (f1 = 0 < 0.5) and must score
		// the shallow leaf's class 1 regardless of f0.
		X: []float32{
			inf, 0,
			-inf, 0,
			nan, 0,
			3, 0,
		},
	}
	hb := NewHummingbird(hw.DefaultGPU())
	res, err := hb.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileHB(f)
	if err != nil {
		t.Fatal(err)
	}
	if prog.strategy != "ptt" {
		t.Fatalf("forest compiled with %q, the regression needs the PTT strategy", prog.strategy)
	}
	for i := 0; i < data.NumRecords(); i++ {
		want := f.PredictClass(data.Row(i))
		if want != 1 {
			t.Fatalf("row %d: naive traversal gives %d, test construction expects 1", i, want)
		}
		if res.Predictions[i] != want {
			t.Errorf("row %d (f0=%v): PTT predicted %d, naive traversal %d",
				i, data.Row(i)[0], res.Predictions[i], want)
		}
	}
}
