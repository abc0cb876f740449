package forest

import (
	"math"
	"testing"

	"accelscore/internal/dataset"
)

func TestFeatureImportanceSumsToOne(t *testing.T) {
	f := trainIris(t, 8, 8)
	imp := f.FeatureImportance()
	if len(imp) != 4 {
		t.Fatalf("importance length %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
}

func TestPetalFeaturesDominateIris(t *testing.T) {
	// Petal length/width are the well-known discriminative IRIS features;
	// any reasonable importance measure ranks one of them first.
	f := trainIris(t, 16, 10)
	ranked := f.RankedImportance()
	if ranked[0].Name != "petal_length" && ranked[0].Name != "petal_width" {
		t.Fatalf("top feature = %s (%v)", ranked[0].Name, ranked[0].Importance)
	}
	// Ranked order is non-increasing.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Importance > ranked[i-1].Importance {
			t.Fatal("ranking not sorted")
		}
	}
}

func TestMBBDominatesHiggs(t *testing.T) {
	// The generator makes m_bb (feature 25) the most discriminative
	// feature, as in the real dataset.
	d := dataset.Higgs(3000, 5)
	f, err := Train(d, ForestConfig{
		NumTrees:  8,
		Tree:      TrainConfig{MaxDepth: 8},
		Seed:      2,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked := f.RankedImportance()
	top3 := []string{ranked[0].Name, ranked[1].Name, ranked[2].Name}
	for _, n := range top3 {
		if n == "m_bb" {
			return
		}
	}
	t.Fatalf("m_bb not in top-3 features: %v", top3)
}
