// Package kernel implements the shared flat-traversal scoring kernel every
// functional CPU path uses: a forest lowered once into parallel int32/float32
// node arrays (the cache-friendly layout database-integrated inference
// platforms compile trees into) and scored 64 rows at a time, every tree
// streamed over the block, fanned out over a GOMAXPROCS-sized worker pool.
//
// Scoring is written once. Predict, PredictSel and PredictAggregate are the
// same call with different (selection, output) arguments: score splits the
// rows among workers, scoreRange lists each 64-row block's rows to score —
// all of them when the selection is nil, the block's survivors otherwise —
// and either stores the predictions or tallies them, scoreBlock streams
// every tree over the block, and descend is the (row, tree) walk. Dense
// scoring is the all-rows case of the filtered loop, not a second loop, so a
// change to the node layout or the visiting order is an edit to scoreBlock
// and descend that the plain, filtered and aggregate queries all run. walk
// is a second, deliberately independent spelling of the descent for the
// row-at-a-time oracle PredictRow, which the batch path is tested against.
//
// The package is deliberately free of repo dependencies: internal/forest
// lowers its pointer trees into a Compiled via the builder API (BeginTree /
// EmitLeaf / EmitSplit / SetChildren / Seal), and every consumer — the
// Scikit-learn and ONNX CPU engines, forest batch prediction, the pipeline's
// compiled-model cache — shares the same traversal core.
package kernel

import (
	"fmt"
	"runtime"
	"sync"
)

// rowBlockSize is the traversal's unit of work: a block's feature rows and
// vote counters stay cache-resident while every tree's node arrays are
// streamed over them, so neither the model nor the data thrashes the cache
// when both are large. It equals the Selection word width, so one bitmap
// word covers exactly one block.
const rowBlockSize = 64

// maxNodes bounds the flat arrays so node indices fit comfortably in int32.
const maxNodes = 1 << 30

// Compiled is a forest lowered into flat parallel node arrays. Leaves are
// encoded in the child links: rightChild < 0 marks a leaf, and the class id
// is recoverable as -(leftChild+1). A Compiled is immutable after Seal and
// safe for concurrent use by any number of Predict calls.
type Compiled struct {
	// treeStart[i] is the first node index of tree i; tree i occupies
	// [treeStart[i], treeStart[i+1]).
	treeStart []int32
	// Parallel node arrays.
	featureIdx []int32
	threshold  []float32
	leftChild  []int32
	rightChild []int32
	value      []float64
	class      []int32

	classes int
	boosted bool
	base    float64
	sealed  bool
}

// New returns an empty compiled form ready for tree emission. classes is the
// vote-vector width (at least 1); boosted selects margin aggregation with
// base as the initial log-odds.
func New(classes int, boosted bool, base float64) *Compiled {
	if classes < 1 {
		classes = 1
	}
	return &Compiled{classes: classes, boosted: boosted, base: base}
}

// BeginTree opens the next tree's node extent.
func (c *Compiled) BeginTree() {
	c.treeStart = append(c.treeStart, int32(len(c.featureIdx)))
}

// EmitLeaf appends a leaf node and returns its index.
func (c *Compiled) EmitLeaf(class int32, value float64) int32 {
	idx := int32(len(c.featureIdx))
	c.featureIdx = append(c.featureIdx, 0)
	c.threshold = append(c.threshold, 0)
	c.leftChild = append(c.leftChild, -class-1)
	c.rightChild = append(c.rightChild, -1)
	c.value = append(c.value, value)
	c.class = append(c.class, class)
	return idx
}

// EmitSplit appends an internal node and returns its index; the children are
// patched in later with SetChildren once their subtrees are emitted.
func (c *Compiled) EmitSplit(feature int32, threshold float32) int32 {
	idx := int32(len(c.featureIdx))
	c.featureIdx = append(c.featureIdx, feature)
	c.threshold = append(c.threshold, threshold)
	c.leftChild = append(c.leftChild, 0)
	c.rightChild = append(c.rightChild, 0)
	c.value = append(c.value, 0)
	c.class = append(c.class, 0)
	return idx
}

// SetChildren links an internal node to its emitted subtrees.
func (c *Compiled) SetChildren(parent, left, right int32) {
	c.leftChild[parent] = left
	c.rightChild[parent] = right
}

// Seal closes the last tree's extent and freezes the compiled form.
func (c *Compiled) Seal() error {
	if len(c.featureIdx) > maxNodes {
		return fmt.Errorf("kernel: ensemble too large to flatten (%d nodes)", len(c.featureIdx))
	}
	c.treeStart = append(c.treeStart, int32(len(c.featureIdx)))
	c.sealed = true
	return nil
}

// NumTrees returns the compiled tree count.
func (c *Compiled) NumTrees() int {
	if len(c.treeStart) == 0 {
		return 0
	}
	if c.sealed {
		return len(c.treeStart) - 1
	}
	return len(c.treeStart)
}

// NumNodes returns the total flattened node count.
func (c *Compiled) NumNodes() int { return len(c.featureIdx) }

// NumClasses returns the vote-vector width.
func (c *Compiled) NumClasses() int { return c.classes }

// Boosted reports margin (vs vote) aggregation.
func (c *Compiled) Boosted() bool { return c.boosted }

// walk descends one flattened tree for one row and returns the leaf index.
// It is PredictRow's own descent, not a call to descend: the oracle shares no
// traversal code with the batch path it checks.
func (c *Compiled) walk(root int32, row []float32) int32 {
	idx := root
	for {
		right := c.rightChild[idx]
		if right < 0 {
			return idx
		}
		if row[c.featureIdx[idx]] < c.threshold[idx] {
			idx = c.leftChild[idx]
		} else {
			idx = right
		}
	}
}

// PredictRow scores a single row. votes is scratch space of at least
// NumClasses entries (ignored for boosted ensembles; pass nil to allocate).
func (c *Compiled) PredictRow(row []float32, votes []int) int {
	trees := c.NumTrees()
	if c.boosted {
		margin := c.base
		for t := 0; t < trees; t++ {
			margin += c.value[c.walk(c.treeStart[t], row)]
		}
		if margin > 0 {
			return 1
		}
		return 0
	}
	if len(votes) < c.classes {
		votes = make([]int, c.classes)
	}
	for i := 0; i < c.classes; i++ {
		votes[i] = 0
	}
	for t := 0; t < trees; t++ {
		votes[c.class[c.walk(c.treeStart[t], row)]]++
	}
	return argmax(votes)
}

// votePool recycles the per-block vote counters so steady-state Predict
// calls allocate nothing; buffers grow to the widest class count seen and
// then stick.
var votePool = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 8*rowBlockSize)
		return &s
	},
}

func getVotes(n int) *[]int32 {
	p := votePool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func putVotes(p *[]int32) { votePool.Put(p) }

// Predict scores n = len(out) rows of the row-major feature matrix x
// (features values per row) into out, using up to workers goroutines
// (clamped to GOMAXPROCS; <= 0 means GOMAXPROCS). It is the all-rows case of
// PredictSel: the same loop with no selection.
func (c *Compiled) Predict(x []float32, features int, out []int, workers int) {
	c.score(x, features, len(out), nil, out, nil, workers)
}

// PredictSel scores only the rows selected by sel, writing their
// predictions densely (ascending row order) into out, which must have
// sel.Count() entries. x is the full row-major matrix covering sel.Len()
// rows; unselected rows are never touched — a 64-row block with no
// survivors is skipped before any tree node loads. A nil sel selects every
// one of len(out) rows. workers as in Predict.
func (c *Compiled) PredictSel(x []float32, features int, sel *Selection, out []int, workers int) {
	n := len(out)
	if sel != nil {
		n = sel.Len()
	}
	c.score(x, features, n, sel, out, nil, workers)
}

// PredictAggregate fuses scoring with a per-class count: selected rows are
// scored block-wise and their predicted classes tallied into counts
// (length >= NumClasses(), or >= 2 for boosted ensembles) without ever
// materializing a per-row prediction vector. sel may be nil to aggregate
// over every row (n rows of x).
func (c *Compiled) PredictAggregate(x []float32, features int, n int, sel *Selection, counts []int64, workers int) {
	if classes := c.countClasses(); len(counts) < classes {
		panic(fmt.Sprintf("kernel: PredictAggregate counts length %d < classes %d", len(counts), classes))
	}
	if sel != nil {
		n = sel.Len()
	}
	c.score(x, features, n, sel, nil, counts, workers)
}

// countClasses is the histogram width PredictAggregate tallies into: a
// boosted ensemble predicts 0 or 1 whatever its declared class count.
func (c *Compiled) countClasses() int {
	if c.boosted && c.classes < 2 {
		return 2
	}
	return c.classes
}

// score is the one fan-out under all three entry points. It splits the n
// rows x covers into contiguous runs of whole 64-row blocks, one per worker
// (workers clamped to GOMAXPROCS and to the block count), runs scoreRange on
// each and waits. With counts non-nil every worker tallies into a private
// histogram and the histograms are summed at the barrier; otherwise workers
// write disjoint ranges of out. One worker runs on the caller's goroutine
// and allocates nothing.
func (c *Compiled) score(x []float32, features, n int, sel *Selection, out []int, counts []int64, workers int) {
	maxProcs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > maxProcs {
		workers = maxProcs
	}
	numBlocks := (n + rowBlockSize - 1) / rowBlockSize
	if workers > numBlocks {
		workers = numBlocks
	}
	if workers <= 1 {
		c.scoreRange(x, features, sel, out, counts, 0, n)
		return
	}
	blocksPerWorker := (numBlocks + workers - 1) / workers
	var locals []int64
	classes := c.countClasses()
	if counts != nil {
		locals = make([]int64, workers*classes)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * blocksPerWorker * rowBlockSize
		hi := min(lo+blocksPerWorker*rowBlockSize, n)
		if lo >= hi {
			break
		}
		var local []int64
		if counts != nil {
			local = locals[w*classes : (w+1)*classes]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.scoreRange(x, features, sel, out, local, lo, hi)
		}()
	}
	wg.Wait()
	for i, v := range locals {
		counts[i%classes] += v
	}
}

// scoreRange is the one loop every query runs: for each 64-row block of
// [lo, hi) (lo block-aligned) it lists the rows to score — every row of the
// block when sel is nil, the block's survivors otherwise, a block with none
// skipped before any tree node loads — scores them with scoreBlock, and
// either tallies the predicted classes into counts (when non-nil, so at most
// 64 predictions ever exist at once) or writes them into out at the block's
// dense rank, which without a selection is the row index itself.
func (c *Compiled) scoreRange(x []float32, features int, sel *Selection, out []int, counts []int64, lo, hi int) {
	var rows [rowBlockSize]int32
	var scratch [rowBlockSize]int
	vp := getVotes(rowBlockSize * c.classes)
	outPos := lo
	if sel != nil {
		outPos = sel.Rank(lo)
	}
	for base := lo; base < hi; base += rowBlockSize {
		var nb int
		if sel == nil {
			nb = min(rowBlockSize, hi-base)
			for r := 0; r < nb; r++ {
				rows[r] = int32(base + r)
			}
		} else if nb = gatherBlock(sel.words[base/selWordBits], base, &rows); nb == 0 {
			continue
		}
		dst := scratch[:nb]
		if counts == nil {
			dst = out[outPos : outPos+nb]
			outPos += nb
		}
		c.scoreBlock(x, features, rows[:nb], dst, *vp)
		if counts != nil {
			for _, cls := range dst {
				counts[cls]++
			}
		}
	}
	putVotes(vp)
}

// scoreBlock walks every tree for the rows of x listed in rows (at most one
// block) and writes their predicted classes into out[:len(rows)]. votes is
// scratch of at least len(rows)*classes entries (unused for boosted
// ensembles). This is the traversal: the order rows and trees are visited
// in is decided here, the node layout here and in descend, and nowhere else.
// Trees are streamed over the block so a tree's nodes are reused by every
// row while the block's features and vote counters stay cache-resident. The
// node arrays are hoisted into locals: repeated loads through the receiver
// cost ~40% of traversal time on the hot path.
func (c *Compiled) scoreBlock(x []float32, features int, rows []int32, out []int, votes []int32) {
	nb, trees := len(rows), c.NumTrees()
	feat, thr := c.featureIdx, c.threshold
	left, right := c.leftChild, c.rightChild
	// A row's offset into x is the same for every tree: compute it once.
	var offs [rowBlockSize]int
	for r, row := range rows {
		offs[r] = int(row) * features
	}
	if c.boosted {
		val := c.value
		var margins [rowBlockSize]float64
		for r := 0; r < nb; r++ {
			margins[r] = c.base
		}
		for t := 0; t < trees; t++ {
			root := c.treeStart[t]
			for r := 0; r < nb; r++ {
				margins[r] += val[descend(feat, thr, left, right, x[offs[r]:offs[r]+features], root)]
			}
		}
		for r := 0; r < nb; r++ {
			out[r] = 0
			if margins[r] > 0 {
				out[r] = 1
			}
		}
		return
	}
	class, classes := c.class, c.classes
	votes = votes[:nb*classes]
	for i := range votes {
		votes[i] = 0
	}
	for t := 0; t < trees; t++ {
		root := c.treeStart[t]
		for r := 0; r < nb; r++ {
			votes[r*classes+int(class[descend(feat, thr, left, right, x[offs[r]:offs[r]+features], root)])]++
		}
	}
	for r := 0; r < nb; r++ {
		out[r] = argmax(votes[r*classes : (r+1)*classes])
	}
}

// descend is the (row, tree) walk: from root, follow child links until
// rightChild < 0 marks a leaf, and return the leaf's index. It is written
// once and takes the node arrays as arguments so the compiler inlines it
// (cost 32 of a budget of 80) into scoreBlock's loops with the arrays in
// registers; BenchmarkKernelPredict is the guard on that.
func descend(feat []int32, thr []float32, left, right []int32, row []float32, idx int32) int32 {
	for {
		rc := right[idx]
		if rc < 0 {
			return idx
		}
		if row[feat[idx]] < thr[idx] {
			idx = left[idx]
		} else {
			idx = rc
		}
	}
}

// argmax returns the index of the maximum count, lowest index winning ties —
// the tie convention shared by every backend.
func argmax[T int | int32](counts []T) int {
	best := 0
	for i, v := range counts {
		if v > counts[best] {
			best = i
		}
	}
	return best
}
