package cpuonnx

import (
	"testing"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/model"
)

func trainIris(t testing.TB, trees, depth int) *forest.Forest {
	t.Helper()
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees:  trees,
		Tree:      forest.TrainConfig{MaxDepth: depth},
		Seed:      2,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNames(t *testing.T) {
	spec := hw.DefaultCPU()
	if got := New(spec, 1).Name(); got != "CPU_ONNX" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(spec, 52).Name(); got != "CPU_ONNX_52th" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(spec, 0).Threads(); got != 1 {
		t.Fatalf("default threads = %d", got)
	}
}

func TestScoreMatchesForest(t *testing.T) {
	f := trainIris(t, 8, 10)
	data := dataset.Iris().Replicate(300)
	for _, threads := range []int{1, 52} {
		e := New(hw.DefaultCPU(), threads)
		res, err := e.Score(&backend.Request{Forest: f, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want := f.PredictBatch(data)
		for i := range want {
			if res.Predictions[i] != want[i] {
				t.Fatalf("threads=%d prediction %d: %d != %d", threads, i, res.Predictions[i], want[i])
			}
		}
	}
}

func TestScoreBlobPath(t *testing.T) {
	f := trainIris(t, 4, 8)
	blob, err := model.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.Iris().Head(50)
	e := New(hw.DefaultCPU(), 1)
	res, err := e.ScoreBlob(blob, &backend.Request{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("blob prediction %d differs", i)
		}
	}
	// Corrupt blobs are rejected.
	blob[10] ^= 0xFF
	if _, err := e.ScoreBlob(blob, &backend.Request{Data: data}); err == nil {
		t.Fatal("corrupt blob accepted")
	}
}

func TestSingleRecordLatencyIsTiny(t *testing.T) {
	// ONNX on one thread is the latency-optimal CPU path at 1 record —
	// the baseline for the paper's ">=10x wrong-offload penalty".
	e := New(hw.DefaultCPU(), 1)
	tl, err := e.Estimate(forest.SyntheticStats(1, 10, 4, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Total(); got > 300*time.Microsecond {
		t.Fatalf("1-record ONNX latency = %v, want well under a millisecond", got)
	}
}

func TestAnchor54xBaseline(t *testing.T) {
	// CPU_ONNX_52th at 1M x 128 trees x 10 levels on IRIS: ~2.4s (the
	// paper's 54x FPGA denominator).
	e := New(hw.DefaultCPU(), 52)
	tl, err := e.Estimate(forest.SyntheticStats(128, 10, 4, 3), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Total(); got < 2*time.Second || got > 3*time.Second {
		t.Fatalf("ONNX52 IRIS 1Mx128t = %v, want ~2.4s", got)
	}
}

func TestONNXvsSKLearnCrossover(t *testing.T) {
	// Below a few thousand records single-thread ONNX must beat the
	// 52-thread Scikit-learn engine (paper §IV-C2); at 1M records it must
	// lose. The Scikit-learn batch-setup constant is 4ms, so compare
	// against it directly.
	spec := hw.DefaultCPU()
	onnx := New(spec, 1)
	stats := forest.SyntheticStats(1, 10, 4, 3)

	small, _ := onnx.Estimate(stats, 1000)
	if small.Total() >= spec.SKLearnBatchSetup {
		t.Fatalf("ONNX at 1K records (%v) should beat sklearn's %v setup floor",
			small.Total(), spec.SKLearnBatchSetup)
	}
	big, _ := onnx.Estimate(stats, 1_000_000)
	sklearnBig := spec.SKLearnScoringTime(stats.Visits(1_000_000), 4, 52)
	if big.Total() <= sklearnBig {
		t.Fatalf("ONNX-1th at 1M records (%v) should lose to sklearn-52th (%v)",
			big.Total(), sklearnBig)
	}
}

func BenchmarkScore10K(b *testing.B) {
	f := trainIris(b, 16, 10)
	data := dataset.Iris().Replicate(10_000)
	e := New(hw.DefaultCPU(), 52)
	req := &backend.Request{Forest: f, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Score(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFlatEnsembleMatchesPointerWalk(t *testing.T) {
	f := trainIris(t, 10, 10)
	fe, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Iris()
	votes := make([]int, f.NumClasses)
	for i := 0; i < d.NumRecords(); i++ {
		row := d.Row(i)
		if got, want := fe.PredictRow(row, votes), f.PredictClass(row); got != want {
			t.Fatalf("flat kernel %d != pointer walk %d on row %d", got, want, i)
		}
	}
	// The node arrays account for every node exactly once.
	total := 0
	for _, tr := range f.Trees {
		total += tr.NodeCount()
	}
	if fe.NumNodes() != total {
		t.Fatalf("flattened %d nodes, forest has %d", fe.NumNodes(), total)
	}
	if fe.NumTrees() != len(f.Trees) {
		t.Fatal("tree extents broken")
	}
}

func TestFlatEnsembleBoosted(t *testing.T) {
	d := dataset.Higgs(1200, 71)
	f, err := forest.TrainBoosted(d, forest.BoostConfig{NumTrees: 8, MaxDepth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumRecords(); i += 13 {
		row := d.Row(i)
		if got, want := fe.PredictRow(row, nil), f.PredictClass(row); got != want {
			t.Fatalf("boosted flat kernel differs on row %d", i)
		}
	}
}

// TestPrecompiledRequest verifies the cache-hit fast path: a request
// carrying the pre-lowered kernel form must produce identical predictions.
func TestPrecompiledRequest(t *testing.T) {
	f := trainIris(t, 6, 8)
	data := dataset.Iris().Replicate(500)
	compiled, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e := New(hw.DefaultCPU(), 52)
	plain, err := e.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := e.Score(&backend.Request{Forest: f, Data: data, Compiled: compiled})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Predictions {
		if plain.Predictions[i] != pre.Predictions[i] {
			t.Fatalf("precompiled prediction %d differs", i)
		}
	}
}
