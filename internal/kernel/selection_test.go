package kernel_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/kernel"
)

// filterExpected scores every row densely, then applies the selection —
// the unfused reference the fused path must match bit-for-bit.
func filterExpected(c *kernel.Compiled, x []float32, features, n int, sel *kernel.Selection) []int {
	all := make([]int, n)
	c.Predict(x, features, all, 1)
	out := make([]int, 0, sel.Count())
	for i := 0; i < n; i++ {
		if sel.Selected(i) {
			out = append(out, all[i])
		}
	}
	return out
}

// The name predates the removal of Selection.Slice (PR 24); it is kept so
// the suite's test IDs stay put.
func TestSelectionRankCountSlice(t *testing.T) {
	n := 300
	sel := kernel.SelectionFromFunc(n, func(r int) bool { return r%3 == 0 })
	if sel.Len() != n {
		t.Fatalf("Len = %d", sel.Len())
	}
	want := 0
	for i := 0; i < n; i++ {
		if got := sel.Rank(i); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", i, got, want)
		}
		if i%3 == 0 {
			if !sel.Selected(i) {
				t.Fatalf("row %d should be selected", i)
			}
			want++
		}
	}
	if sel.Count() != want || sel.Rank(n) != want {
		t.Fatalf("Count = %d, Rank(n) = %d, want %d", sel.Count(), sel.Rank(n), want)
	}
	rank := 0
	sel.ForEach(func(row, r int) {
		if r != rank || !sel.Selected(row) {
			t.Fatalf("ForEach rank %d row %d out of order", r, row)
		}
		rank++
	})
	if rank != sel.Count() {
		t.Fatalf("ForEach visited %d rows, want %d", rank, sel.Count())
	}
}

// TestStripeSelectionIsItsWords: stripe k of n keeps exactly the rows of
// words b with b % n == k that base keeps, whatever the tail, and the n
// stripes count to base.
func TestStripeSelectionIsItsWords(t *testing.T) {
	for _, rows := range []int{0, 1, 63, 64, 65, 200, 1003} {
		base := kernel.SelectionFromFunc(rows, func(r int) bool { return r%7 != 3 })
		for _, b := range []*kernel.Selection{nil, base} {
			for n := 1; n <= 5; n++ {
				total := 0
				for k := 0; k < n; k++ {
					s := kernel.StripeSelection(b, rows, k, n)
					for r := 0; r < rows; r++ {
						want := r/kernel.StripeRows%n == k && (b == nil || b.Selected(r))
						if s.Selected(r) != want {
							t.Fatalf("rows=%d base=%v stripe %d/%d: row %d selected %v", rows, b != nil, k, n, r, s.Selected(r))
						}
					}
					if s.Len() != rows {
						t.Fatalf("stripe %d/%d covers %d rows, want %d", k, n, s.Len(), rows)
					}
					total += s.Count()
				}
				want := rows
				if b != nil {
					want = b.Count()
				}
				if total != want {
					t.Fatalf("rows=%d base=%v: %d stripes count %d rows, want %d", rows, b != nil, n, total, want)
				}
			}
		}
	}
}

// TestStripeFirstWhereIsStripeOfWhere: evaluating the WHERE over stripe k of
// n only, as a shard does, selects exactly the rows of the WHERE over every
// row masked to the stripe — for random conjunctions of feature and column
// predicates (NaN cells and values at the constant included), row counts
// around the word width and every k of n up to 5.
func TestStripeFirstWhereIsStripeOfWhere(t *testing.T) {
	const features = 3
	rng := rand.New(rand.NewSource(26))
	ops := []kernel.PredOp{kernel.PredEQ, kernel.PredNE, kernel.PredLT, kernel.PredLE, kernel.PredGT, kernel.PredGE}
	cell := func() float32 {
		if rng.Intn(10) == 0 {
			return float32(math.NaN())
		}
		return float32(rng.Intn(8)) / 4
	}
	for trial := 0; trial < 60; trial++ {
		rows := []int{0, 1, 63, 64, 65, 200, 1003}[trial%7]
		x := make([]float32, rows*features)
		for i := range x {
			x[i] = cell()
		}
		preds := make([]kernel.Predicate, trial%4)
		for i := range preds {
			preds[i] = kernel.Predicate{Feature: rng.Intn(features+1) - 1, Op: ops[rng.Intn(len(ops))], Value: float64(rng.Intn(8)) / 4}
			if preds[i].Feature < 0 {
				preds[i].Col = make([]float64, rows)
				for r := range preds[i].Col {
					preds[i].Col[r] = float64(cell())
				}
			}
		}
		where := kernel.BuildSelection(rows, preds, x, features)
		for n := 1; n <= 5; n++ {
			for k := 0; k < n; k++ {
				got := kernel.FilterSelection(kernel.StripeSelection(nil, rows, k, n), rows, preds, x, features)
				want := kernel.StripeSelection(where, rows, k, n)
				if got.Len() != rows || got.Count() != want.Count() {
					t.Fatalf("trial %d, %d rows, stripe %d/%d: %d of %d rows selected, want %d of %d",
						trial, rows, k, n, got.Count(), got.Len(), want.Count(), rows)
				}
				for r := 0; r < rows; r++ {
					if got.Selected(r) != want.Selected(r) {
						t.Fatalf("trial %d, %d rows, stripe %d/%d: row %d selected %v, want %v", trial, rows, k, n, r, got.Selected(r), want.Selected(r))
					}
				}
			}
		}
	}
}

func TestBuildSelectionMatchesSQLSemantics(t *testing.T) {
	x := []float32{1, 2, 1.5, 4, float32(math.NaN()), 6, 3, 8}
	aux := []float64{10, 20, 30, 40}
	cases := []struct {
		pred kernel.Predicate
		want []bool
	}{
		{kernel.Predicate{Feature: 0, Op: kernel.PredLT, Value: 2}, []bool{true, true, false, false}},
		{kernel.Predicate{Feature: 0, Op: kernel.PredEQ, Value: 1.5}, []bool{false, true, false, false}},
		// NaN never matches, = or <>, matching compareFloats.
		{kernel.Predicate{Feature: 0, Op: kernel.PredNE, Value: 0}, []bool{true, true, false, true}},
		{kernel.Predicate{Feature: 0, Op: kernel.PredGE, Value: 1.5}, []bool{false, true, false, true}},
		{kernel.Predicate{Feature: -1, Col: aux, Op: kernel.PredLE, Value: 20}, []bool{true, true, false, false}},
	}
	for ci, tc := range cases {
		sel := kernel.BuildSelection(4, []kernel.Predicate{tc.pred}, x, 2)
		for i, want := range tc.want {
			if sel.Selected(i) != want {
				t.Fatalf("case %d row %d: got %v, want %v", ci, i, sel.Selected(i), want)
			}
		}
	}
	// Conjunction: feature pred AND aux pred.
	sel := kernel.BuildSelection(4, []kernel.Predicate{
		{Feature: 1, Op: kernel.PredGT, Value: 2},
		{Feature: -1, Col: aux, Op: kernel.PredLT, Value: 35},
	}, x, 2)
	for i, want := range []bool{false, true, true, false} {
		if sel.Selected(i) != want {
			t.Fatalf("conjunction row %d: got %v, want %v", i, sel.Selected(i), want)
		}
	}
}

// TestPredictSelMatchesScoreThenFilter is the kernel-level fusion
// invariant: fused filter+score must be bit-identical to dense score then
// filter, across block-boundary sizes, worker counts, and selectivities
// including empty and full.
func TestPredictSelMatchesScoreThenFilter(t *testing.T) {
	f := trainIris(t, 12, 10)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 63, 64, 65, 257, 1003} {
		d := dataset.Iris().Replicate(rows)
		features := d.NumFeatures()
		sels := []*kernel.Selection{
			kernel.SelectionFromFunc(rows, func(r int) bool { return r%7 == 0 }),
			kernel.SelectionFromFunc(rows, func(r int) bool { return r >= rows/2 }),
			kernel.SelectionFromFunc(rows, func(r int) bool { return false }),
			kernel.SelectionFromFunc(rows, func(r int) bool { return true }),
		}
		for si, sel := range sels {
			want := filterExpected(c, d.X, features, rows, sel)
			for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				got := make([]int, sel.Count())
				c.PredictSel(d.X, features, sel, got, workers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rows=%d sel=%d workers=%d: pred[%d] = %d, want %d",
							rows, si, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPredictAggregateMatchesBincount checks the fused score+count path
// against counting the materialized predictions, for vote and boosted
// ensembles, with and without a selection.
func TestPredictAggregateMatchesBincount(t *testing.T) {
	forests := map[string]*forest.Forest{"votes": trainIris(t, 12, 10)}
	bf, err := forest.TrainBoosted(dataset.Higgs(400, 11), forest.BoostConfig{
		NumTrees: 8, MaxDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	forests["boosted"] = bf
	for name, f := range forests {
		c, err := f.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rows := 413
		var d *dataset.Dataset
		if name == "boosted" {
			d = dataset.Higgs(rows, 23)
		} else {
			d = dataset.Iris().Replicate(rows)
		}
		features := d.NumFeatures()
		classes := f.NumClasses
		if classes < 2 {
			classes = 2
		}
		for _, sel := range []*kernel.Selection{
			nil,
			kernel.SelectionFromFunc(rows, func(r int) bool { return r%5 != 0 }),
			kernel.SelectionFromFunc(rows, func(r int) bool { return false }),
		} {
			want := make([]int64, classes)
			preds := make([]int, rows)
			c.Predict(d.X, features, preds, 1)
			for i, p := range preds {
				if sel == nil || sel.Selected(i) {
					want[p]++
				}
			}
			for _, workers := range []int{1, 4} {
				got := make([]int64, classes)
				c.PredictAggregate(d.X, features, rows, sel, got, workers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s sel=%v workers=%d: counts[%d] = %d, want %d",
							name, sel != nil, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPredictNoAllocsWarm asserts the single-worker path of all three entry
// points allocates nothing once warm: the row list, the offsets, the tally
// words and the aggregate's 64-prediction scratch live on the stack, and no
// pool is left to warm (the 200 runs date from one, which -race made drop
// buffers).
func TestPredictNoAllocsWarm(t *testing.T) {
	f := trainIris(t, 8, 8)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Iris().Replicate(200)
	features := d.NumFeatures()
	sel := kernel.SelectionFromFunc(200, func(r int) bool { return r%3 != 0 })
	out := make([]int, 200)
	counts := make([]int64, c.NumClasses())
	for name, call := range map[string]func(){
		"Predict":          func() { c.Predict(d.X, features, out, 1) },
		"PredictSel":       func() { c.PredictSel(d.X, features, sel, out[:sel.Count()], 1) },
		"PredictAggregate": func() { c.PredictAggregate(d.X, features, 200, sel, counts, 1) },
	} {
		call() // warm the pool
		if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
			t.Errorf("warm %s allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

func BenchmarkPredictSel(b *testing.B) {
	f := trainIris(b, 64, 10)
	c, err := f.Compile()
	if err != nil {
		b.Fatal(err)
	}
	d := dataset.Iris().Replicate(4096)
	features := d.NumFeatures()
	for _, tc := range []struct {
		name string
		pct  int
	}{{"sel1pct", 1}, {"sel10pct", 10}, {"sel100pct", 100}} {
		sel := kernel.SelectionFromFunc(4096, func(r int) bool { return r%100 < tc.pct })
		out := make([]int, sel.Count())
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.PredictSel(d.X, features, sel, out, 1)
			}
		})
	}
	out := make([]int, 4096)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Predict(d.X, features, out, 1)
		}
	})
}
