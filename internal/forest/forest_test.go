package forest

import (
	"testing"
	"testing/quick"

	"accelscore/internal/dataset"
	"accelscore/internal/xrand"
)

func trainIris(t *testing.T, trees, depth int) *Forest {
	t.Helper()
	f, err := Train(dataset.Iris(), ForestConfig{
		NumTrees:  trees,
		Tree:      TrainConfig{MaxDepth: depth},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSingleTreeFitsIris(t *testing.T) {
	f := trainIris(t, 1, 10)
	acc := f.Accuracy(dataset.Iris())
	if acc < 0.95 {
		t.Fatalf("single-tree training accuracy = %v, want >= 0.95", acc)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForestGeneralizesIris(t *testing.T) {
	train, test := dataset.Iris().Split(0.3, xrand.New(2))
	f, err := Train(train, ForestConfig{
		NumTrees:  16,
		Tree:      TrainConfig{MaxDepth: 10},
		Seed:      3,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(test); acc < 0.85 {
		t.Fatalf("forest test accuracy = %v, want >= 0.85", acc)
	}
}

func TestForestLearnsHiggs(t *testing.T) {
	full := dataset.Higgs(4000, 11)
	train, test := full.Split(0.25, xrand.New(4))
	f, err := Train(train, ForestConfig{
		NumTrees:  12,
		Tree:      TrainConfig{MaxDepth: 8},
		Seed:      5,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := f.Accuracy(test)
	// Synthetic HIGGS is learnable: meaningfully above the ~53% majority
	// class baseline.
	if acc < 0.65 {
		t.Fatalf("HIGGS test accuracy = %v, want >= 0.65", acc)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	for _, depth := range []int{1, 3, 6, 10} {
		f := trainIris(t, 8, depth)
		for i, tr := range f.Trees {
			if d := tr.Depth(); d > depth {
				t.Fatalf("depth %d: tree %d has depth %d", depth, i, d)
			}
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	a := trainIris(t, 8, 6)
	b := trainIris(t, 8, 6)
	d := dataset.Iris()
	for i := 0; i < d.NumRecords(); i++ {
		if a.PredictClass(d.Row(i)) != b.PredictClass(d.Row(i)) {
			t.Fatalf("same-seed forests disagree on row %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := ForestConfig{NumTrees: 4, Tree: TrainConfig{MaxDepth: 4}, Bootstrap: true}
	cfg.Seed = 1
	a, _ := Train(dataset.Iris(), cfg)
	cfg.Seed = 2
	b, _ := Train(dataset.Iris(), cfg)
	// Structures should differ somewhere (node counts are a cheap proxy).
	as, bs := a.ComputeStats(), b.ComputeStats()
	if as.TotalNodes == bs.TotalNodes && as.AvgPathLength == bs.AvgPathLength {
		t.Skip("seeds produced structurally identical forests (unlikely)")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(dataset.Iris(), ForestConfig{NumTrees: 0}); err == nil {
		t.Fatal("NumTrees=0 accepted")
	}
	unlabeled := dataset.Iris()
	unlabeled.Y = nil
	if _, err := Train(unlabeled, ForestConfig{NumTrees: 1}); err == nil {
		t.Fatal("unlabeled training accepted")
	}
	if _, err := TrainTree(unlabeled, nil, TrainConfig{}, xrand.New(1)); err == nil {
		t.Fatal("TrainTree on unlabeled data accepted")
	}
	if _, err := TrainTree(dataset.Iris(), []int{}, TrainConfig{}, xrand.New(1)); err == nil {
		t.Fatal("TrainTree with no rows accepted")
	}
}

func TestPredictionInRange(t *testing.T) {
	f := trainIris(t, 8, 6)
	d := dataset.Iris()
	err := quick.Check(func(i uint16) bool {
		row := d.Row(int(i) % d.NumRecords())
		c := f.PredictClass(row)
		return c >= 0 && c < f.NumClasses
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestVoteConsistency(t *testing.T) {
	// The forest's prediction must be the argmax of its trees' votes.
	f := trainIris(t, 15, 6)
	d := dataset.Iris()
	for i := 0; i < d.NumRecords(); i++ {
		row := d.Row(i)
		votes := make([]int, f.NumClasses)
		for _, tr := range f.Trees {
			votes[tr.PredictClass(row)]++
		}
		if got, want := f.PredictClass(row), Argmax(votes); got != want {
			t.Fatalf("row %d: PredictClass=%d argmax=%d votes=%v", i, got, want, votes)
		}
	}
}

func TestStats(t *testing.T) {
	f := trainIris(t, 8, 6)
	s := f.ComputeStats()
	if s.Trees != 8 || s.Features != 4 || s.Classes != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDepth < 1 || s.MaxDepth > 6 {
		t.Fatalf("MaxDepth = %d", s.MaxDepth)
	}
	if s.AvgPathLength <= 0 || s.AvgPathLength > float64(s.MaxDepth) {
		t.Fatalf("AvgPathLength = %v beyond max depth %d", s.AvgPathLength, s.MaxDepth)
	}
	// Binary tree node accounting: leaves = internal + trees.
	if s.TotalLeaves != (s.TotalNodes-s.TotalLeaves)+s.Trees {
		t.Fatalf("node accounting broken: %+v", s)
	}
}

func TestSyntheticStats(t *testing.T) {
	s := SyntheticStats(128, 10, 4, 3)
	if s.TotalNodes != 128*2047 || s.TotalLeaves != 128*1024 {
		t.Fatalf("synthetic stats = %+v", s)
	}
	if s.Visits(1_000_000) != 1_280_000_000 {
		t.Fatalf("Visits = %d", s.Visits(1_000_000))
	}
}

func TestRegressorAveragesVotes(t *testing.T) {
	// Regression on IRIS labels (0,1,2): predictions must be within range
	// and close to labels for training data.
	f, err := Train(dataset.Iris(), ForestConfig{
		NumTrees:  8,
		Kind:      Regressor,
		Tree:      TrainConfig{MaxDepth: 8},
		Seed:      6,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Iris()
	var se float64
	for i := 0; i < d.NumRecords(); i++ {
		var v float64
		for _, tr := range f.Trees {
			v += tr.PredictValue(d.Row(i))
		}
		v /= float64(len(f.Trees))
		if v < 0 || v > 2 {
			t.Fatalf("regression value %v out of label range", v)
		}
		diff := v - float64(d.Y[i])
		se += diff * diff
	}
	if mse := se / float64(d.NumRecords()); mse > 0.1 {
		t.Fatalf("training MSE = %v, want < 0.1", mse)
	}
}

func TestEntropyCriterion(t *testing.T) {
	f, err := Train(dataset.Iris(), ForestConfig{
		NumTrees: 4,
		Tree:     TrainConfig{MaxDepth: 6, Criterion: Entropy},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(dataset.Iris()); acc < 0.9 {
		t.Fatalf("entropy forest accuracy = %v", acc)
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	f, err := Train(dataset.Iris(), ForestConfig{
		NumTrees: 1,
		Tree:     TrainConfig{MaxDepth: 20, MinSamplesLeaf: 10},
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var check func(n *Node)
	check = func(n *Node) {
		if n.IsLeaf() {
			if n.Samples < 10 {
				t.Fatalf("leaf with %d samples < MinSamplesLeaf", n.Samples)
			}
			return
		}
		check(n.Left)
		check(n.Right)
	}
	check(f.Trees[0].Root)
}

func TestSplitConventionStrictlyLess(t *testing.T) {
	// Every training row must actually follow the (< threshold -> left)
	// rule to land in a leaf whose recorded class region contains it; walk
	// one tree manually and compare with Predict.
	f := trainIris(t, 1, 10)
	d := dataset.Iris()
	tr := f.Trees[0]
	for i := 0; i < d.NumRecords(); i++ {
		row := d.Row(i)
		n := tr.Root
		for !n.IsLeaf() {
			if row[n.Feature] < n.Threshold {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		if n != tr.Root.Predict(row) {
			t.Fatalf("manual walk disagrees with Predict on row %d", i)
		}
	}
}

func TestArgmaxTieBreaksLow(t *testing.T) {
	if Argmax([]int{3, 3, 1}) != 0 {
		t.Fatal("tie should resolve to lowest index")
	}
	if Argmax([]int{1, 5, 5}) != 1 {
		t.Fatal("tie should resolve to lowest index")
	}
}

func TestValidateCatchesBadTree(t *testing.T) {
	f := trainIris(t, 2, 4)
	// Corrupt: internal node with single child.
	bad := &Node{Feature: 0, Threshold: 1, Left: &Node{}, Right: nil}
	f.Trees[0].Root = bad
	if f.Validate() == nil {
		t.Fatal("single-child internal node not caught")
	}
	f = trainIris(t, 2, 4)
	f.Trees[1].Root = &Node{Class: 99}
	if f.Validate() == nil {
		t.Fatal("out-of-range leaf class not caught")
	}
	f = trainIris(t, 1, 4)
	f.Trees[0].NumFeatures = 7
	if f.Validate() == nil {
		t.Fatal("schema mismatch not caught")
	}
}

func BenchmarkTrainIris16Trees(b *testing.B) {
	d := dataset.Iris()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d, ForestConfig{NumTrees: 16, Tree: TrainConfig{MaxDepth: 10}, Seed: 1, Bootstrap: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatchIris(b *testing.B) {
	d := dataset.Iris().Replicate(10_000)
	f, err := Train(dataset.Iris(), ForestConfig{NumTrees: 16, Tree: TrainConfig{MaxDepth: 10}, Seed: 1, Bootstrap: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(d)
	}
}
