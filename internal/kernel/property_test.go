package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"accelscore/internal/kernel"
)

// randomCompiled emits a random ensemble straight through the builder API:
// unbalanced trees of depth <= maxDepth over features in [0, 1), leaves with
// a random class and a random margin contribution.
func randomCompiled(t *testing.T, rng *rand.Rand, classes int, boosted bool, trees, features, maxDepth int) *kernel.Compiled {
	t.Helper()
	c := kernel.New(classes, boosted, rng.NormFloat64()/4)
	var emit func(depth int) int32
	emit = func(depth int) int32 {
		if depth == 0 || rng.Intn(5) == 0 {
			return c.EmitLeaf(int32(rng.Intn(classes)), rng.NormFloat64())
		}
		node := c.EmitSplit(int32(rng.Intn(features)), rng.Float32())
		left, right := emit(depth-1), emit(depth-1)
		c.SetChildren(node, left, right)
		return node
	}
	for i := 0; i < trees; i++ {
		c.BeginTree()
		emit(maxDepth)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c
}

// selShapes are the selections the three entry points must agree under; each
// builds its bitmap over n rows (nil is the dense query).
var selShapes = []struct {
	name  string
	build func(rng *rand.Rand, n int) *kernel.Selection
}{
	{"nil", func(*rand.Rand, int) *kernel.Selection { return nil }},
	{"all", func(_ *rand.Rand, n int) *kernel.Selection {
		return kernel.SelectionFromFunc(n, func(int) bool { return true })
	}},
	{"none", func(_ *rand.Rand, n int) *kernel.Selection {
		return kernel.SelectionFromFunc(n, func(int) bool { return false })
	}},
	{"random", func(rng *rand.Rand, n int) *kernel.Selection {
		return kernel.SelectionFromFunc(n, func(int) bool { return rng.Intn(3) == 0 })
	}},
	{"one-block-empty", func(rng *rand.Rand, n int) *kernel.Selection {
		empty := rng.Intn((n + 63) / 64)
		return kernel.SelectionFromFunc(n, func(r int) bool { return r/64 != empty })
	}},
	{"ragged-tail-only", func(_ *rand.Rand, n int) *kernel.Selection {
		return kernel.SelectionFromFunc(n, func(r int) bool { return r/64 == (n-1)/64 })
	}},
}

// TestEntryPointsAreOneFunction is the property behind the single traversal:
// Predict, PredictSel and PredictAggregate are one function of (selection,
// counts-or-predictions), and that function is the row-at-a-time oracle
// PredictRow applied to the selected rows. Random vote forests (2–7 classes,
// few enough trees that vote ties are common) and boosted ensembles, batch
// sizes around the 64-row block boundary, every worker count, every
// selection shape.
func TestEntryPointsAreOneFunction(t *testing.T) {
	// At least four Ps, so workers = 2 and workers = GOMAXPROCS fan out for
	// real (and differently) on a one-CPU runner too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	workerCounts := map[string]int{"1": 1, "2": 2, "max": runtime.GOMAXPROCS(0)}

	const features = 6
	rng := rand.New(rand.NewSource(18))
	ran := map[string]int{}
	ties, parallelAgg := 0, 0
	for trial := 0; trial < 12; trial++ {
		kind, classes, boosted := "vote", 2+trial/2%6, false
		if trial%2 == 1 {
			kind, classes, boosted = "boosted", 1+trial%4/2, true
		}
		trees := []int{1, 2, 4, 17}[trial/2%4]
		c := randomCompiled(t, rng, classes, boosted, trees, features, 1+rng.Intn(7))

		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			x := make([]float32, n*features)
			for i := range x {
				x[i] = rng.Float32()
			}
			// The oracle: one row at a time through the out-of-line walk.
			want := make([]int, n)
			votes := make([]int, classes)
			for i := range want {
				want[i] = c.PredictRow(x[i*features:(i+1)*features], votes)
				for cls, v := range votes {
					if !boosted && cls != want[i] && v == votes[want[i]] {
						if cls < want[i] {
							t.Fatalf("PredictRow broke a tie upward: votes %v -> %d", votes, want[i])
						}
						ties++
					}
				}
			}
			for _, shape := range selShapes {
				if n == 0 && shape.name == "one-block-empty" {
					continue // no block to empty
				}
				sel := shape.build(rng, n)
				wantSel := want
				if sel != nil {
					wantSel = make([]int, 0, sel.Count())
					sel.ForEach(func(row, _ int) { wantSel = append(wantSel, want[row]) })
				}
				wantCounts := make([]int64, max(classes, 2))
				for _, p := range wantSel {
					wantCounts[p]++
				}
				for label, workers := range workerCounts {
					where := fmt.Sprintf("trial %d (%s, %d classes, %d trees) n=%d sel=%s workers=%d",
						trial, kind, classes, trees, n, shape.name, workers)
					got := poisoned(len(wantSel))
					c.PredictSel(x, features, sel, got, workers)
					if !reflect.DeepEqual(got, wantSel) {
						t.Fatalf("%s: PredictSel != PredictRow over the selected rows", where)
					}
					if sel == nil || sel.Count() == n {
						// nil and the all-rows bitmap are the same query, and
						// both are Predict.
						dense := poisoned(n)
						c.Predict(x, features, dense, workers)
						if !reflect.DeepEqual(dense, got) {
							t.Fatalf("%s: Predict != PredictSel over every row", where)
						}
					}
					counts := make([]int64, len(wantCounts))
					c.PredictAggregate(x, features, n, sel, counts, workers)
					if !reflect.DeepEqual(counts, wantCounts) {
						t.Fatalf("%s: PredictAggregate %v != tally of PredictSel %v", where, counts, wantCounts)
					}
					if workers > 1 && n > 64 {
						parallelAgg++
					}
					if n > 0 {
						ran[kind+"/"+shape.name+"/"+label]++
					}
				}
			}
		}
	}

	// The test's own coverage: every selection shape met both ensemble kinds
	// at every worker count on a non-empty batch, ties were really forced,
	// and the per-worker histograms were really merged.
	for _, kind := range []string{"vote", "boosted"} {
		for _, shape := range selShapes {
			for label := range workerCounts {
				if key := kind + "/" + shape.name + "/" + label; ran[key] == 0 {
					t.Errorf("combination %s never ran", key)
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no vote tie in any trial: the lowest-index rule went untested")
	}
	if parallelAgg == 0 {
		t.Error("no multi-worker aggregate ran")
	}
}

// poisoned returns n slots no class id equals, so a slot the kernel failed
// to write cannot pass for a prediction.
func poisoned(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}
