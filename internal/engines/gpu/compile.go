// Package gpu implements the two GPU scoring libraries the paper evaluates
// on the Tesla P100: Hummingbird ("GPU-HB"), which compiles forests into
// tensor programs, and RAPIDS cuML/FIL ("GPU-RAPIDS"), which runs
// divergence-prone traversal kernels after a costly cuDF conversion.
//
// Both engines really compute predictions (the Hummingbird path executes
// the compiled tensor program; the RAPIDS path walks trees like a FIL
// thread block) and both charge simulated time from the calibrated
// hw.GPUSpec models.
package gpu

import (
	"fmt"
	"math"

	"accelscore/internal/forest"
	"accelscore/internal/tensor"
)

// gemmDepthLimit is the deepest tree compiled with the dense GEMM strategy;
// deeper trees use PerfectTreeTraversal, mirroring Hummingbird's own
// strategy heuristics (Nakandala et al., OSDI 2020).
const gemmDepthLimit = 3

// pttTree is one tree compiled for the PerfectTreeTraversal strategy: the
// tree is padded to a perfect binary tree of fixed depth and evaluation
// always descends exactly Depth levels — Hummingbird's "redundant
// computation" trade (paper §III-A).
type pttTree struct {
	depth     int
	attrs     []int32   // 2^depth - 1 internal slots
	thresh    []float32 // 2^depth - 1 internal slots
	leafClass []int32   // 2^depth leaf slots
	// leafValue carries the regression/boosting contribution of each leaf
	// slot for gradient-boosted ensembles.
	leafValue []float32
}

// compilePTT pads tree t to a perfect tree of the given depth.
func compilePTT(t *forest.Tree, depth int) *pttTree {
	internal := (1 << uint(depth)) - 1
	leaves := 1 << uint(depth)
	p := &pttTree{
		depth:     depth,
		attrs:     make([]int32, internal),
		thresh:    make([]float32, internal),
		leafClass: make([]int32, leaves),
		leafValue: make([]float32, leaves),
	}
	p.fill(t.Root, 0, 0)
	return p
}

// fill recursively writes the padded slots. A leaf encountered above the
// final level becomes a subtree of dummy nodes (attr 0, +Inf threshold)
// whose every slot holds the leaf's class.
func (p *pttTree) fill(n *forest.Node, idx, depth int) {
	if depth == p.depth {
		p.leafClass[idx-len(p.attrs)] = int32(n.Class)
		p.leafValue[idx-len(p.attrs)] = float32(n.Value)
		return
	}
	if n.IsLeaf() {
		p.attrs[idx] = 0
		p.thresh[idx] = float32(math.Inf(1)) // x[0] < +Inf: finite inputs go left
		// Pad BOTH subtrees with the leaf: a NaN or +Inf feature value fails
		// the < +Inf comparison and descends right, so a left-only dummy
		// chain would land such rows on zero-initialized slots and silently
		// report class 0 instead of the real leaf.
		p.fill(n, 2*idx+1, depth+1)
		p.fill(n, 2*idx+2, depth+1)
		return
	}
	p.attrs[idx] = int32(n.Feature)
	p.thresh[idx] = n.Threshold
	p.fill(n.Left, 2*idx+1, depth+1)
	p.fill(n.Right, 2*idx+2, depth+1)
}

// predict descends exactly depth levels — no early exit, exactly like the
// tensorized gather kernels.
func (p *pttTree) predict(row []float32) int {
	return int(p.leafClass[p.leafSlot(row)])
}

// predictValue returns the reached leaf's regression/boosting value.
func (p *pttTree) predictValue(row []float32) float32 {
	return p.leafValue[p.leafSlot(row)]
}

// leafSlot walks the padded tree and returns the leaf-array index.
func (p *pttTree) leafSlot(row []float32) int {
	idx := 0
	for d := 0; d < p.depth; d++ {
		if row[p.attrs[idx]] < p.thresh[idx] {
			idx = 2*idx + 1
		} else {
			idx = 2*idx + 2
		}
	}
	return idx - len(p.attrs)
}

// gemmTree is one tree compiled to Hummingbird's GEMM strategy: dense
// matrices relating features -> internal-node decisions -> leaf selection.
type gemmTree struct {
	// a is (features x internal): one-hot rows selecting each internal
	// node's comparison attribute.
	a *tensor.Matrix
	// b holds each internal node's threshold.
	b []float32
	// c is (internal x leaves): +1 where the path to the leaf takes the
	// node's left edge, -1 for the right edge, 0 off-path.
	c *tensor.Matrix
	// expected holds, per leaf, the number of left edges on its path; a
	// row of decisions d selects leaf l iff (d*c)[l] == expected[l].
	expected []float32
	// leafClass holds each leaf's class id.
	leafClass []int32
}

// compileGEMM lowers one tree (depth <= gemmDepthLimit enforced by caller).
func compileGEMM(t *forest.Tree) *gemmTree {
	var internals []*forest.Node
	var leaves []*forest.Node
	var walk func(n *forest.Node)
	walk = func(n *forest.Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n)
			return
		}
		internals = append(internals, n)
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)

	ni, nl := len(internals), len(leaves)
	idxOf := make(map[*forest.Node]int, ni)
	for i, n := range internals {
		idxOf[n] = i
	}
	g := &gemmTree{
		a:         tensor.New(t.NumFeatures, ni),
		b:         make([]float32, ni),
		c:         tensor.New(ni, nl),
		expected:  make([]float32, nl),
		leafClass: make([]int32, nl),
	}
	for i, n := range internals {
		g.a.Set(n.Feature, i, 1)
		g.b[i] = n.Threshold
	}
	// For every leaf, trace its root path writing +-1 into c.
	var trace func(n *forest.Node, leafIdx int, path []*forest.Node, dirs []bool) bool
	leafIndex := make(map[*forest.Node]int, nl)
	for i, l := range leaves {
		leafIndex[l] = i
	}
	trace = func(n *forest.Node, leafIdx int, path []*forest.Node, dirs []bool) bool {
		if n.IsLeaf() {
			if leafIndex[n] != leafIdx {
				return false
			}
			for k, pn := range path {
				i := idxOf[pn]
				if dirs[k] {
					g.c.Set(i, leafIdx, 1)
					g.expected[leafIdx]++
				} else {
					g.c.Set(i, leafIdx, -1)
				}
			}
			return true
		}
		if trace(n.Left, leafIdx, append(path, n), append(dirs, true)) {
			return true
		}
		return trace(n.Right, leafIdx, append(path, n), append(dirs, false))
	}
	for i, l := range leaves {
		g.leafClass[i] = int32(l.Class)
		trace(t.Root, i, nil, nil)
	}
	return g
}

// predictBatch evaluates the compiled tree over an input matrix
// (records x features) using real tensor operations, returning one class per
// record.
func (g *gemmTree) predictBatch(x *tensor.Matrix) []int {
	xa := tensor.MatMul(x, g.a)               // records x internal: gathered feature values
	p := tensor.LessBroadcast(xa, g.b)        // records x internal: decision bits
	s := tensor.MatMul(p, g.c)                // records x leaves: path scores
	m := tensor.EqualBroadcast(s, g.expected) // records x leaves: leaf hit mask
	out := make([]int, x.Rows)
	for r := 0; r < x.Rows; r++ {
		base := r * m.Cols
		out[r] = 0
		for l := 0; l < m.Cols; l++ {
			if m.Data[base+l] == 1 {
				out[r] = int(g.leafClass[l])
				break
			}
		}
	}
	return out
}

// hbProgram is a forest compiled for Hummingbird.
type hbProgram struct {
	strategy string // "gemm" or "ptt"
	depth    int    // padded depth for ptt
	ptt      []*pttTree
	gemm     []*gemmTree
	classes  int
	// boosted selects margin summation over majority vote, with base the
	// ensemble's initial log-odds.
	boosted bool
	base    float64
}

// compileHB selects the strategy by tree depth and compiles every tree.
// Classifier and boosted ensembles are supported (§III-A: "decision tree,
// random forest, and gradient boost models"); regressors are not part of
// the paper's pipeline.
func compileHB(f *forest.Forest) (*hbProgram, error) {
	if f.Kind != forest.Classifier && f.Kind != forest.Boosted {
		return nil, fmt.Errorf("gpu: hummingbird path supports classifier and boosted ensembles, got %s", f.Kind)
	}
	maxDepth := 0
	for _, t := range f.Trees {
		if d := t.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth == 0 {
		maxDepth = 1 // stump-only ensembles still need one padded level
	}
	prog := &hbProgram{
		classes: f.NumClasses,
		depth:   maxDepth,
		boosted: f.Kind == forest.Boosted,
		base:    f.BaseScore,
	}
	if maxDepth <= gemmDepthLimit && !prog.boosted {
		prog.strategy = "gemm"
		for _, t := range f.Trees {
			prog.gemm = append(prog.gemm, compileGEMM(t))
		}
		return prog, nil
	}
	prog.strategy = "ptt"
	for _, t := range f.Trees {
		prog.ptt = append(prog.ptt, compilePTT(t, maxDepth))
	}
	return prog, nil
}
