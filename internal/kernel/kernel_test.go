package kernel_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/kernel"
)

func trainIris(t testing.TB, trees, depth int) *forest.Forest {
	t.Helper()
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees:  trees,
		Tree:      forest.TrainConfig{MaxDepth: depth},
		Seed:      7,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBuilderHandBuilt exercises the builder API directly: one tree with a
// single split (x0 < 0.5 ? class 0 : class 1).
func TestBuilderHandBuilt(t *testing.T) {
	c := kernel.New(2, false, 0)
	c.BeginTree()
	root := c.EmitSplit(0, 0.5)
	left := c.EmitLeaf(0, 0)
	right := c.EmitLeaf(1, 1)
	c.SetChildren(root, left, right)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if c.NumTrees() != 1 || c.NumNodes() != 3 || c.NumClasses() != 2 {
		t.Fatalf("shape: trees=%d nodes=%d classes=%d", c.NumTrees(), c.NumNodes(), c.NumClasses())
	}
	if got := c.PredictRow([]float32{0.2}, nil); got != 0 {
		t.Fatalf("left branch -> %d", got)
	}
	if got := c.PredictRow([]float32{0.9}, nil); got != 1 {
		t.Fatalf("right branch -> %d", got)
	}
	out := make([]int, 4)
	c.Predict([]float32{0.1, 0.6, 0.49, 0.5}, 1, out, 2)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("batch[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// TestPredictMatchesPointerWalk checks the blocked batch loop against the
// forest's scalar pointer walk at sizes around the block boundaries and at
// every worker count, including rows%rowBlock != 0 tails.
func TestPredictMatchesPointerWalk(t *testing.T) {
	f := trainIris(t, 12, 10)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 63, 64, 65, 127, 500, 1003} {
		d := dataset.Iris().Replicate(rows)
		features := d.NumFeatures()
		for _, workers := range []int{0, 1, 2, 7, runtime.GOMAXPROCS(0) + 3} {
			out := make([]int, rows)
			c.Predict(d.X, features, out, workers)
			for i := 0; i < rows; i++ {
				if want := f.PredictClass(d.Row(i)); out[i] != want {
					t.Fatalf("rows=%d workers=%d row %d: kernel %d != walk %d",
						rows, workers, i, out[i], want)
				}
			}
		}
	}
}

// TestPredictBoosted checks the margin-aggregation path of the blocked loop.
func TestPredictBoosted(t *testing.T) {
	d := dataset.Higgs(1500, 13)
	f, err := forest.TrainBoosted(d, forest.BoostConfig{NumTrees: 10, MaxDepth: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Boosted() {
		t.Fatal("boosted flag lost")
	}
	out := make([]int, d.NumRecords())
	c.Predict(d.X, d.NumFeatures(), out, 4)
	for i := range out {
		if want := f.PredictClass(d.Row(i)); out[i] != want {
			t.Fatalf("boosted row %d: kernel %d != walk %d", i, out[i], want)
		}
	}
}

// TestCompileAccountsEveryNode verifies the lowering covers the ensemble
// exactly once.
func TestCompileAccountsEveryNode(t *testing.T) {
	f := trainIris(t, 9, 8)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tr := range f.Trees {
		total += tr.NodeCount()
	}
	if c.NumNodes() != total {
		t.Fatalf("compiled %d nodes, forest has %d", c.NumNodes(), total)
	}
	if c.NumTrees() != len(f.Trees) {
		t.Fatalf("compiled %d trees, forest has %d", c.NumTrees(), len(f.Trees))
	}
}

// TestEmptyBatch must be a no-op.
func TestEmptyBatch(t *testing.T) {
	f := trainIris(t, 2, 4)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c.Predict(nil, f.NumFeatures, nil, 4)
}

// TestSealRefusesLinksThatAreNotTrees hand-builds link graphs through the
// builder API. Seal must refuse the ones that are not one tree per extent,
// naming the tree — before this check a cyclic graph made Predict spin and a
// cross-tree link scored another tree's nodes — and whatever it accepts must
// score, and score like PredictRow.
func TestSealRefusesLinksThatAreNotTrees(t *testing.T) {
	// Every case's ensemble starts with a good stump, so the bad tree is
	// tree 1, and gets a good stump after it to link into.
	stump := func(c *kernel.Compiled) {
		c.BeginTree()
		root := c.EmitSplit(0, 0.5)
		c.SetChildren(root, c.EmitLeaf(0, -1), c.EmitLeaf(1, 1))
	}
	for _, tc := range []struct {
		name    string
		build   func(c *kernel.Compiled)
		wantErr string
	}{
		{"single-leaf", func(c *kernel.Compiled) { c.EmitLeaf(1, 2) }, ""},
		{"stump", func(c *kernel.Compiled) {
			root := c.EmitSplit(0, 0.25)
			c.SetChildren(root, c.EmitLeaf(1, 2), c.EmitLeaf(0, -2))
		}, ""},
		{"self-link", func(c *kernel.Compiled) {
			root := c.EmitSplit(0, 0.25)
			c.SetChildren(root, root, c.EmitLeaf(0, 0))
		}, "reached twice"},
		{"two-node-cycle", func(c *kernel.Compiled) {
			a, b := c.EmitSplit(0, 0.5), c.EmitSplit(0, 0.25)
			c.SetChildren(a, b, c.EmitLeaf(0, 0))
			c.SetChildren(b, c.EmitLeaf(1, 0), a) // x = 0.3 goes a -> b -> a
		}, "reached twice"},
		{"link-into-next-tree", func(c *kernel.Compiled) {
			root := c.EmitSplit(0, 0.25)
			leaf := c.EmitLeaf(0, 0)
			c.SetChildren(root, leaf, leaf+1) // leaf+1 is the next tree's root
		}, "outside the tree's extent"},
		{"link-into-previous-tree", func(c *kernel.Compiled) {
			root := c.EmitSplit(0, 0.25)
			c.SetChildren(root, 0, c.EmitLeaf(0, 0))
		}, "outside the tree's extent"},
		{"shared-subtree", func(c *kernel.Compiled) {
			root, a, b := c.EmitSplit(0, 0.5), c.EmitSplit(0, 0.25), c.EmitSplit(0, 0.75)
			shared := c.EmitLeaf(1, 0)
			c.SetChildren(root, a, b)
			c.SetChildren(a, c.EmitLeaf(0, 0), shared)
			c.SetChildren(b, shared, c.EmitLeaf(0, 0))
		}, "reached twice"},
		{"children-never-set", func(c *kernel.Compiled) {
			root := c.EmitSplit(0, 0.25)
			c.SetChildren(root, c.EmitSplit(0, 0.75), c.EmitLeaf(0, 0))
		}, "outside the tree's extent"},
		{"orphan", func(c *kernel.Compiled) {
			c.EmitLeaf(0, 0)
			c.EmitLeaf(1, 0)
		}, "unreachable"},
		{"no-nodes", func(*kernel.Compiled) {}, "no nodes"},
		// A boosted leaf's class is never read, so there these two must score.
		{"class-out-of-range", func(c *kernel.Compiled) { c.EmitLeaf(2, 0) }, "class 2"},
		{"class-negative", func(c *kernel.Compiled) { c.EmitLeaf(-1, 0) }, "class -1"},
		{"negative-feature", func(c *kernel.Compiled) {
			root := c.EmitSplit(-1, 0.25)
			c.SetChildren(root, c.EmitLeaf(0, 0), c.EmitLeaf(1, 0))
		}, "feature -1"},
	} {
		for _, boosted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/boosted=%v", tc.name, boosted), func(t *testing.T) {
				if boosted && strings.HasPrefix(tc.name, "class-") {
					tc.wantErr = ""
				}
				c := kernel.New(2, boosted, 0)
				stump(c)
				c.BeginTree()
				tc.build(c)
				stump(c)
				err := c.Seal()
				if tc.wantErr != "" {
					if err == nil {
						// Score anyway: what Seal lets through must at least
						// terminate (the cyclic shapes did not, before).
						t.Errorf("Seal accepted a %s", tc.name)
					} else if !strings.Contains(err.Error(), "tree 1") || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("Seal error %q should name tree 1 and say %q", err, tc.wantErr)
					} else {
						return
					}
				} else if err != nil {
					t.Fatalf("Seal refused a %s: %v", tc.name, err)
				}
				x := []float32{0.1, 0.3, 0.6, 0.9, 0.1, 0.3, 0.6, 0.9, 0.5, 0.25, 0.75}
				out := make([]int, len(x))
				c.Predict(x, 1, out, 1)
				for i := range x {
					if want := c.PredictRow(x[i:i+1], nil); out[i] != want {
						t.Fatalf("row %d (x=%v): Predict %d != PredictRow %d", i, x[i], out[i], want)
					}
				}
			})
		}
	}
}
