package forest

import (
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/xrand"
)

func trainBoostedHiggs(t testing.TB, trees, depth int) (*Forest, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	full := dataset.Higgs(4000, 21)
	train, test := full.Split(0.25, xrand.New(6))
	f, err := TrainBoosted(train, BoostConfig{
		NumTrees: trees,
		MaxDepth: depth,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, train, test
}

func TestBoostedLearnsHiggs(t *testing.T) {
	f, train, test := trainBoostedHiggs(t, 30, 4)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	trainAcc := f.Accuracy(train)
	testAcc := f.Accuracy(test)
	if testAcc < 0.70 {
		t.Fatalf("boosted test accuracy = %v, want >= 0.70", testAcc)
	}
	if trainAcc < testAcc-0.02 {
		t.Fatalf("training accuracy %v below test %v", trainAcc, testAcc)
	}
}

func TestBoostedBeatsShallowForest(t *testing.T) {
	// At a matched budget of shallow trees, boosting should beat bagging —
	// the standard bias-reduction advantage.
	full := dataset.Higgs(4000, 22)
	train, test := full.Split(0.25, xrand.New(7))
	gbt, err := TrainBoosted(train, BoostConfig{NumTrees: 30, MaxDepth: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Train(train, ForestConfig{
		NumTrees:  30,
		Tree:      TrainConfig{MaxDepth: 3},
		Seed:      2,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gbt.Accuracy(test) <= rf.Accuracy(test) {
		t.Fatalf("boosted (%v) did not beat bagged shallow forest (%v)",
			gbt.Accuracy(test), rf.Accuracy(test))
	}
}

func TestBoostedDeterministic(t *testing.T) {
	d := dataset.Higgs(1000, 23)
	a, err := TrainBoosted(d, BoostConfig{NumTrees: 5, MaxDepth: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainBoosted(d, BoostConfig{NumTrees: 5, MaxDepth: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumRecords(); i++ {
		if a.Margin(d.Row(i)) != b.Margin(d.Row(i)) {
			t.Fatalf("same-seed boosted models diverge at row %d", i)
		}
	}
}

func TestBoostedMarginConsistency(t *testing.T) {
	f, _, test := trainBoostedHiggs(t, 10, 3)
	for i := 0; i < test.NumRecords(); i += 7 {
		row := test.Row(i)
		m := f.Margin(row)
		want := 0
		if m > 0 {
			want = 1
		}
		if got := f.PredictClass(row); got != want {
			t.Fatalf("row %d: class %d but margin %v", i, got, m)
		}
	}
}

func TestBoostedMoreRoundsImproveFit(t *testing.T) {
	d := dataset.Higgs(2000, 24)
	few, err := TrainBoosted(d, BoostConfig{NumTrees: 2, MaxDepth: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	many, err := TrainBoosted(d, BoostConfig{NumTrees: 40, MaxDepth: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if many.Accuracy(d) <= few.Accuracy(d) {
		t.Fatalf("40 rounds (%v) not better than 2 (%v) on training data",
			many.Accuracy(d), few.Accuracy(d))
	}
}

func TestBoostedSubsample(t *testing.T) {
	d := dataset.Higgs(1500, 25)
	f, err := TrainBoosted(d, BoostConfig{NumTrees: 10, MaxDepth: 3, Seed: 4, Subsample: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(d); acc < 0.65 {
		t.Fatalf("stochastic boosting accuracy = %v", acc)
	}
}

func TestBoostedErrors(t *testing.T) {
	iris := dataset.Iris() // 3 classes
	if _, err := TrainBoosted(iris, BoostConfig{NumTrees: 2}); err == nil {
		t.Fatal("3-class boosted training accepted")
	}
	higgs := dataset.Higgs(100, 1)
	if _, err := TrainBoosted(higgs, BoostConfig{NumTrees: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	unlabeled := dataset.Higgs(100, 1)
	unlabeled.Y = nil
	if _, err := TrainBoosted(unlabeled, BoostConfig{NumTrees: 2}); err == nil {
		t.Fatal("unlabeled accepted")
	}
	// Single-class data cannot be boosted.
	oneClass := dataset.Higgs(50, 2)
	for i := range oneClass.Y {
		oneClass.Y[i] = 0
	}
	if _, err := TrainBoosted(oneClass, BoostConfig{NumTrees: 2}); err == nil {
		t.Fatal("single-class data accepted")
	}
}

func TestBoostedValidateGuards(t *testing.T) {
	f, _, _ := trainBoostedHiggs(t, 3, 3)
	f.NumClasses = 3
	if f.Validate() == nil {
		t.Fatal("3-class boosted forest validated")
	}
}

func BenchmarkTrainBoosted(b *testing.B) {
	d := dataset.Higgs(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainBoosted(d, BoostConfig{NumTrees: 10, MaxDepth: 3, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
