package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestWalksAgreeLeafForLeaf runs walkAVX512 and lockstep over the same trees,
// rows and block sizes and requires the same leaf in every lane: every n from
// 0 to 64, under a shuffled offs as scoreBlock's swaps leave it; single-leaf
// trees, one-sided depth-24 chains leaning either way and random trees; and
// NaN, ±Inf, ±0, denormals and values equal to a threshold on both sides of
// every compare, as thresholds and cells are drawn from the same values.
func TestWalksAgreeLeafForLeaf(t *testing.T) {
	if !avx512() {
		t.Skip("this CPU or OS cannot run the AVX-512 walk")
	}
	const features, classes = 5, 3
	denormal := math.Float32frombits(1)
	values := []float32{
		float32(math.NaN()), math.Float32frombits(0xFFC00000), // NaN, -NaN
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), denormal, -denormal,
		0.5, -0.5, 1,
	}
	rng := rand.New(rand.NewSource(47))
	pick := func() float32 { return values[rng.Intn(len(values))] }

	c := New(classes, false, 0)
	var emit func(depth int, shape string) int32
	emit = func(depth int, shape string) int32 {
		if depth == 0 || shape == "random" && rng.Intn(4) == 0 {
			return c.EmitLeaf(int32(rng.Intn(classes)), 0)
		}
		split := c.EmitSplit(int32(rng.Intn(features)), pick())
		var left, right int32
		switch shape {
		case "left":
			left, right = emit(depth-1, shape), emit(0, shape)
		case "right":
			left, right = emit(0, shape), emit(depth-1, shape)
		default:
			left, right = emit(depth-1, shape), emit(depth-1, shape)
		}
		c.SetChildren(split, left, right)
		return split
	}
	shapes := []struct {
		shape string
		depth int
	}{{"leaf", 0}, {"left", 24}, {"right", 24}, {"random", 3}, {"random", 8}, {"random", 8}, {"leaf", 0}}
	for _, s := range shapes {
		c.BeginTree()
		emit(s.depth, s.shape)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}

	x := make([]float32, rowBlockSize*features)
	for i := range x {
		x[i] = pick()
	}
	var offs [rowBlockSize]int
	for tree, s := range shapes {
		root, steps := c.treeStart[tree], c.depth[tree]
		for n := 0; n <= rowBlockSize; n++ {
			for i, r := range rng.Perm(rowBlockSize) {
				offs[i] = r * features
			}
			var got, want [rowBlockSize]int32
			walkAVX512(c.nodes, x, &offs, n, root, steps, &got)
			for r := 0; r < n; r += lanes {
				lockstep(c.nodes, x, (*[lanes]int)(offs[r:]), root, steps, (*[lanes]int32)(want[r:]))
			}
			for r := range n {
				if got[r] != want[r] || c.nodes[got[r]].class < 0 {
					t.Fatalf("tree %d (%s, depth %d) n=%d lane %d (row %d): avx512 leaf %d, go leaf %d",
						tree, s.shape, steps, n, r, offs[r]/features, got[r], want[r])
				}
			}
		}
	}
}
