package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"accelscore/internal/kernel"
)

// awkward are the float32 values a comparison written as "materialise 0 or 1
// and add" could get wrong where a branch would not: both NaNs (sign bit
// clear and set), both infinities, both zeros and the smallest denormal.
// Thresholds and feature values are both drawn from it, so "the feature
// exactly equals the threshold" and "NaN on either side" occur all the time.
var awkward = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xFFC00000), // -NaN
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32,
}

// awkwardOr returns one of the awkward values one time in four and a uniform
// [0, 1) value otherwise.
func awkwardOr(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return awkward[rng.Intn(len(awkward))]
	}
	return rng.Float32()
}

// treeShapes are the shapes an ensemble mixes: random unbalanced trees, and
// the three the lock-step walk treats specially — a single leaf (depth 0: no
// step at all), a depth-1 stump, and a one-sided depth-24 chain (most rows
// reach a leaf long before the tree's depth, so the early stop decides).
var treeShapes = []string{"random", "leaf", "stump", "chain"}

// tilt skews randomCompiled's draws: leaves extra chances for a tree to be a
// single leaf, votes extra chances for a leaf to vote for class favourite.
// The zero tilt draws uniformly.
type tilt struct{ leaves, votes, favourite int }

// draw returns a uniform index below n, or fixed for any of extra further
// slots; with extra 0 it is rng.Intn(n).
func draw(rng *rand.Rand, n, extra, fixed int) int {
	if i := rng.Intn(n + extra); i < n {
		return i
	}
	return fixed
}

// randomCompiled emits a random ensemble straight through the builder API,
// each tree one of treeShapes, thresholds from awkwardOr, leaves with a
// random class and a random margin contribution, all drawn under mix. It
// returns the thresholds it used and counts the shapes it emitted into shapes.
func randomCompiled(t *testing.T, rng *rand.Rand, classes int, boosted bool, trees, features, maxDepth int, mix tilt, shapes map[string]int) (*kernel.Compiled, []float32) {
	t.Helper()
	c := kernel.New(classes, boosted, rng.NormFloat64()/4)
	var thresholds []float32
	leaf := func() int32 {
		return c.EmitLeaf(int32(draw(rng, classes, mix.votes, mix.favourite)), rng.NormFloat64())
	}
	split := func() int32 {
		thresholds = append(thresholds, awkwardOr(rng))
		return c.EmitSplit(int32(rng.Intn(features)), thresholds[len(thresholds)-1])
	}
	var emit func(depth int) int32
	emit = func(depth int) int32 {
		if depth == 0 || rng.Intn(5) == 0 {
			return leaf()
		}
		node := split()
		left, right := emit(depth-1), emit(depth-1)
		c.SetChildren(node, left, right)
		return node
	}
	for i := 0; i < trees; i++ {
		c.BeginTree()
		shape := treeShapes[draw(rng, len(treeShapes), mix.leaves, slices.Index(treeShapes, "leaf"))]
		shapes[shape]++
		switch shape {
		case "random":
			emit(maxDepth)
		case "leaf":
			leaf()
		case "stump":
			emit(1)
		case "chain":
			// Every split keeps one child a leaf; which side continues
			// varies, so the chain is followed by < and by >= (and NaN) alike.
			node := split()
			for d := 1; d < 24; d++ {
				next, end := split(), leaf()
				if rng.Intn(2) == 0 {
					c.SetChildren(node, next, end)
				} else {
					c.SetChildren(node, end, next)
				}
				node = next
			}
			c.SetChildren(node, leaf(), leaf())
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c, thresholds
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
	// A block gathered from many words: no survivor or one per word.
	{"at-most-one-per-word", func(rng *rand.Rand, n int) *kernel.Selection {
		pick := make([]int, (n+63)/64)
		for w := range pick {
			pick[w] = rng.Intn(128) // half the words get none
		}
		return kernel.SelectionFromFunc(n, func(r int) bool { return r%64 == pick[r/64] })
	}},
	// A word that fills a block by itself, between words that add nothing.
	{"one-dense-word", func(rng *rand.Rand, n int) *kernel.Selection {
		dense := rng.Intn((n + 63) / 64)
		return kernel.SelectionFromFunc(n, func(r int) bool { return r/64 == dense })
	}},
	// A word split between two blocks: 40 survivors in each.
	{"straddling", func(_ *rand.Rand, n int) *kernel.Selection {
		return kernel.SelectionFromFunc(n, func(r int) bool { return r%64 < 40 })
	}},
}

// TestEntryPointsAreOneFunction is the property behind the single traversal:
// Predict, PredictSel and PredictAggregate are one function of (selection,
// counts-or-predictions), and that function is the row-at-a-time oracle
// PredictRow applied to the selected rows. Random vote forests (2–7 classes,
// few enough trees that vote ties are common) and boosted ensembles mixing
// every tree shape; vote forests of 33 and 64 trees in 2 and 3 classes, heavy
// in single leaves and, in four of them, tilted toward the first or the last
// class, so that the early exit decides rows early as well as late and meets
// ties at the bound; a 10-class forest of 32 trees, whose 6-bit tally fields
// reach bit 59 of the row's word, and a 12-class forest of 64 trees, too wide
// for one word, both tilted toward their last class; awkward floats on both
// sides of every comparison; batch
// sizes covering every remainder of the 8-row group and the 64-row block;
// every worker count; every selection shape.
func TestEntryPointsAreOneFunction(t *testing.T) {
	// At least four Ps, so workers = 2 and workers = GOMAXPROCS fan out for
	// real (and differently) on a one-CPU runner too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	workerCounts := map[string]int{"1": 1, "2": 2, "max": runtime.GOMAXPROCS(0)}
	sizes := []int{63, 64, 65, 1000}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}

	const features = 6
	rng := rand.New(rand.NewSource(20))
	ran, shapes := map[string]int{}, map[string]int{}
	ties, parallelAgg, equalCells, nanCells := 0, 0, 0, 0
	exitTies, landslides := 0, 0
	for trial := 0; trial < 22; trial++ {
		kind, classes, boosted := "vote", 2+trial/2%6, false
		if trial%2 == 1 {
			kind, classes, boosted = "boosted", 1+trial%4/2, true
		}
		trees := []int{1, 2, 4, 17}[trial/2%4]
		var mix tilt
		if trial >= 12 {
			kind, classes, boosted, trees = "vote", 2+trial/2%2, false, []int{33, 64}[trial%2]
			mix = tilt{leaves: 4}
			if trial >= 16 {
				mix.votes, mix.favourite = classes, trial/2%2*(classes-1)
			}
		}
		if trial >= 20 {
			classes, trees = []int{10, 12}[trial-20], []int{32, 64}[trial-20]
			mix = tilt{leaves: 4, votes: 2 * classes, favourite: classes - 1}
		}
		c, thresholds := randomCompiled(t, rng, classes, boosted, trees, features, 1+rng.Intn(7), mix, shapes)
		for _, n := range sizes {
			x := make([]float32, n*features)
			for i := range x {
				x[i] = awkwardOr(rng)
				if len(thresholds) > 0 && rng.Intn(8) == 0 {
					x[i] = thresholds[rng.Intn(len(thresholds))]
				}
				if slices.Contains(thresholds, x[i]) {
					equalCells++
				}
				if x[i] != x[i] {
					nanCells++
				}
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
						if trees >= 32 {
							exitTies++
						}
					}
				}
				// Three quarters of the votes is a lead of half the trees,
				// which decides the row a quarter of them before the end.
				if !boosted && trees >= 32 && 4*votes[want[i]] >= 3*trees {
					landslides++
				}
			}
			for _, shape := range selShapes {
				if n == 0 && shape.name != "nil" && shape.name != "all" && shape.name != "none" {
					continue // no word to shape
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
	// at every worker count on a non-empty batch, every tree shape was
	// emitted, comparisons really met NaN and equality, ties were really
	// forced (also where the early exit engages, beside rows it stops long
	// before the end), and the per-worker histograms were really merged.
	for _, kind := range []string{"vote", "boosted"} {
		for _, shape := range selShapes {
			for label := range workerCounts {
				if key := kind + "/" + shape.name + "/" + label; ran[key] == 0 {
					t.Errorf("combination %s never ran", key)
				}
			}
		}
	}
	for _, shape := range treeShapes {
		if shapes[shape] == 0 {
			t.Errorf("no %s tree in any ensemble", shape)
		}
	}
	if equalCells == 0 || nanCells == 0 {
		t.Errorf("%d cells equal to a threshold, %d NaN cells: the awkward comparisons went untested", equalCells, nanCells)
	}
	if ties == 0 {
		t.Error("no vote tie in any trial: the lowest-index rule went untested")
	}
	if exitTies == 0 || landslides == 0 {
		t.Errorf("%d ties and %d landslides in forests of 32 trees or more: the early exit went untested", exitTies, landslides)
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
