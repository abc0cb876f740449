// Package kernel implements the shared flat-traversal scoring kernel every
// functional CPU path uses: a forest lowered once into one slice of packed
// 16-byte nodes and scored a block of up to 64 rows at a time, every tree
// streamed over the block, eight rows walking each tree in lock-step, fanned
// out over a GOMAXPROCS-sized worker pool.
//
// Scoring is written once. Predict, PredictSel and PredictAggregate are the
// same call with different (selection, output) arguments: score splits the
// rows among workers, scoreRange fills each block with the next rows to
// score and either stores the predictions or tallies them, scoreBlock
// streams every tree over the block, and step is one level of one row's
// descent. Dense scoring is the all-rows case of the filtered loop, not a
// second loop. walk is a second, deliberately independent spelling of the
// descent, over the builder's arrays, for the row-at-a-time oracle
// PredictRow, which the batch path is tested against.
//
// Layout. Seal re-lays every tree breadth-first into one []node of
// {feature int32, threshold float32, child int32, class int32}: one 16-byte
// load brings everything a level needs. Siblings are adjacent — the right
// child at child, the left at child+1 — so a level is
//
//	var lt int32; if row[n.feature] < n.threshold { lt = 1 }; idx = n.child + lt
//
// which go1.24 compiles on amd64 to UCOMISS + SETHI + ADD: no conditional
// jump, where the old walk spent its time on one badly predicted branch per
// level (the model was L2-resident all along). It is the same float32 `<` as
// before — false when either side is NaN, so NaN goes right — and
// predictions are bit-identical. A leaf is a self-loop (child its own index,
// threshold NaN: a step from it goes nowhere for any input), so rows that
// reach their leaf early idle there while their group walks on and the loop
// needs no per-lane "done" test, only the tree's depth as its bound.
//
// Order. scoreBlock walks 8 rows through a tree in lock-step: eight
// independent load → compare → add chains in flight where a single walk
// serialises on one. A group stops early once all its lanes are on leaves
// (splits carry class -1, so that is one OR over the nodes the step loads
// anyway); without that a one-sided deep tree costs every row its full
// depth. A block is 64 rows to score, not 64 table rows: scoreRange gathers
// survivors across selection words until it is full, so a sparse filter
// still forms groups. A vote forest of 32 trees or more also stops walking a
// row once no casting of the votes still to come can change its argmax,
// lowest index winning ties — exact integer arithmetic, so predictions stay
// bit-identical; on scan_fused's 64 HIGGS trees the mean row is decided
// after 40.9; a two-class row keeps one margin, v1 − v0. Checks start once
// as many votes are cast as remain, then wait ⌈gap/2⌉ trees, and decided rows
// pad the last group of 8. Below 32 trees the checks cost more than they save
// (small-8x6 +22–32 %, skewed-16x24 +12–14 %); a boosted float margin walks
// every tree, as no bound on a float sum is bit-exact.
//
// Measured and rejected (numbers in DESIGN.md §7): 4 lanes; a whole-block
// level-synchronous loop over an index array; no early stop; left/right in
// locals chosen with an if (Go emits no CMOV on a float condition — only the
// 0/1 materialisation is branch-free); one block per selection word; a vote
// check after every tree, or backing off after checks that decide nothing.
//
// The package is deliberately free of repo dependencies: internal/forest
// lowers its pointer trees into a Compiled via the builder API (BeginTree /
// EmitLeaf / EmitSplit / SetChildren / Seal), and every consumer — the
// Scikit-learn and ONNX CPU engines, forest batch prediction, the pipeline's
// compiled-model cache — shares the same traversal core.
package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// rowBlockSize is the traversal's unit of work: a block's feature rows and
// vote counters stay cache-resident while every tree's nodes are streamed
// over them. It equals the Selection word width, so the block-aligned row
// ranges score hands its workers start on a word boundary.
const rowBlockSize = 64

// lanes is how many rows walk a tree in lock-step; it divides rowBlockSize.
const lanes = 8

// maxNodes bounds the flat arrays so node indices fit comfortably in int32.
const maxNodes = 1 << 30

// node is one packed tree node, the only thing the batch traversal reads.
// A split's right child is nodes[child], its left child nodes[child+1] and
// its class -1; a leaf has child == its own index, a NaN threshold and the
// class it votes for (0 in a boosted ensemble); two-class ensembles score margin.
type node struct {
	feature   int32
	threshold float32
	child     int32
	class     int32
}

// Compiled is a forest lowered into flat node arrays. The builder fills
// parallel arrays in emission order (rightChild < 0 marks a leaf); Seal
// re-lays them into the packed nodes the batch path scores, and the builder
// arrays stay as what the oracle PredictRow walks. A Compiled is immutable
// after Seal and safe for concurrent use.
type Compiled struct {
	// treeStart[i] is the first node index of tree i; tree i occupies
	// [treeStart[i], treeStart[i+1]) in the builder arrays and in nodes
	// alike, its root first in both.
	treeStart []int32
	// Builder arrays, parallel, in emission order.
	featureIdx []int32
	threshold  []float32
	leftChild  []int32
	rightChild []int32
	value      []float64
	class      []int32

	// Packed form, built by Seal: the nodes breadth-first per tree, a two-class
	// ensemble's leaf margins (boosted values or ±1 votes) parallel to them,
	// each tree's depth (steps to any leaf) and the largest feature read.
	nodes      []node
	margin     []float64
	depth      []int32
	maxFeature int32

	classes int
	boosted bool
	base    float64
	sealed  bool
}

// New returns an empty compiled form ready for tree emission. classes is the
// vote-vector width (at least 1); boosted selects margin aggregation with
// base as the initial log-odds. A vote forest ignores base.
func New(classes int, boosted bool, base float64) *Compiled {
	if classes < 1 {
		classes = 1
	}
	if !boosted {
		base = 0
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

// Seal closes the last tree's extent, re-lays the ensemble into its packed
// form and freezes it. It returns an error naming the tree when its links do
// not form one tree inside its own extent — a child outside it, a node
// reached twice (a cycle, a self-link, a shared subtree, children never set)
// or never — or a node would read outside a row or a vote vector.
func (c *Compiled) Seal() error {
	if len(c.featureIdx) > maxNodes {
		return fmt.Errorf("kernel: ensemble too large to flatten (%d nodes)", len(c.featureIdx))
	}
	c.treeStart = append(c.treeStart, int32(len(c.featureIdx)))
	c.nodes = make([]node, len(c.featureIdx))
	if c.boosted || c.classes == 2 {
		c.margin = make([]float64, len(c.featureIdx))
	}
	c.depth = make([]int32, len(c.treeStart)-1)
	placed := make([]bool, len(c.featureIdx))
	queue := make([]int32, 0, len(c.featureIdx))
	for t := range c.depth {
		if err := c.packTree(t, placed, queue); err != nil {
			return fmt.Errorf("kernel: tree %d: %w", t, err)
		}
	}
	c.sealed = true
	return nil
}

// packTree lays tree t out breadth-first: order[k] is the builder index of
// the node packed at treeStart[t]+k, and doubles as the queue (built in
// queue's storage, which every tree reuses). A node is placed at most once,
// so the pass ends whatever the links say.
func (c *Compiled) packTree(t int, placed []bool, queue []int32) error {
	lo, hi := c.treeStart[t], c.treeStart[t+1]
	if lo == hi {
		return fmt.Errorf("no nodes")
	}
	order := append(queue, lo)
	placed[lo] = true
	levelEnd := 1 // queue position at which the next level starts
	for k := 0; k < len(order); k++ {
		if k == levelEnd {
			c.depth[t]++
			levelEnd = len(order)
		}
		b, p := order[k], lo+int32(k)
		if c.rightChild[b] < 0 {
			class := c.class[b]
			if c.boosted {
				class = 0 // never read, the margin is; but must not be the split mark
				c.margin[p] = c.value[b]
			} else if class < 0 || int(class) >= c.classes {
				return fmt.Errorf("leaf %d votes for class %d of %d", b, class, c.classes)
			} else if c.margin != nil {
				c.margin[p] = float64(2*class - 1)
			}
			c.nodes[p] = node{threshold: float32(math.NaN()), child: p, class: class}
			continue
		}
		if c.featureIdx[b] < 0 {
			return fmt.Errorf("split %d reads feature %d", b, c.featureIdx[b])
		}
		c.maxFeature = max(c.maxFeature, c.featureIdx[b])
		c.nodes[p] = node{feature: c.featureIdx[b], threshold: c.threshold[b], child: lo + int32(len(order)), class: -1}
		for _, ch := range [2]int32{c.rightChild[b], c.leftChild[b]} {
			if ch < lo || ch >= hi {
				return fmt.Errorf("split %d links to node %d outside the tree's extent [%d, %d)", b, ch, lo, hi)
			}
			if placed[ch] {
				return fmt.Errorf("node %d is reached twice (from split %d): the links do not form a tree", ch, b)
			}
			placed[ch] = true
			order = append(order, ch)
		}
	}
	if len(order) != int(hi-lo) {
		return fmt.Errorf("%d of %d nodes are unreachable from the root", int(hi-lo)-len(order), hi-lo)
	}
	return nil
}

// NumTrees returns the compiled tree count.
func (c *Compiled) NumTrees() int {
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

// walk descends one tree for one row over the builder arrays and returns the
// leaf's builder index. It is PredictRow's own descent: the oracle shares
// neither traversal code nor node layout with the batch path it checks.
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
	clear(votes[:c.classes])
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
// rows; unselected rows are never touched, and a stretch with no survivors
// costs one bitmap word per 64 rows. A nil sel selects every one of len(out)
// rows. workers as in Predict.
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
	if n > 0 && features <= int(c.maxFeature) {
		// step indexes x directly: a short row would read its neighbour.
		panic(fmt.Sprintf("kernel: rows have %d features, the model reads feature %d", features, c.maxFeature))
	}
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

// scoreRange is the one loop every query runs: it fills a block with the
// next rows of [lo, hi) (lo block-aligned) to score, reading them off 64-bit
// words — the selection's, or all-ones when sel is nil — and taking as many
// words as it takes to fill the block, so a sparse selection still walks
// full groups; scores them with scoreBlock; and either tallies the predicted
// classes into counts (when non-nil, so at most 64 predictions ever exist at
// once) or writes them into out at their dense rank (the row index if dense).
func (c *Compiled) scoreRange(x []float32, features int, sel *Selection, out []int, counts []int64, lo, hi int) {
	var rows [rowBlockSize]int32
	var scratch [rowBlockSize]int
	var votes []int32 // a vote forest's counters; a margin forest keeps none
	if c.margin == nil {
		vp := getVotes(rowBlockSize * c.classes)
		defer putVotes(vp)
		votes = *vp
	}
	outPos := lo
	if sel != nil {
		outPos = sel.Rank(lo)
	}
	// next is the first row no word has been loaded for yet; word holds the
	// rows of the word before it that no block has taken.
	next, word := lo, uint64(0)
	for {
		nb := 0
		for nb < rowBlockSize && (word != 0 || next < hi) {
			if word == 0 {
				word = ^uint64(0) >> max(0, next+selWordBits-hi) // rows [next, hi)
				if sel != nil {
					word = sel.words[next/selWordBits]
				}
				next += selWordBits
				continue
			}
			rows[nb] = int32(next - selWordBits + bits.TrailingZeros64(word))
			nb++
			word &= word - 1
		}
		if nb == 0 {
			break // no row left, or none selected
		}
		dst := scratch[:nb]
		if counts == nil {
			dst = out[outPos : outPos+nb]
			outPos += nb
		}
		c.scoreBlock(x, features, rows[:nb], dst, votes)
		if counts != nil {
			for _, cls := range dst {
				counts[cls]++
			}
		}
	}
}

// scoreBlock walks every tree for the rows of x listed in rows (at most one
// block) and writes their predicted classes into out[:len(rows)]. votes is
// scratch of at least len(rows)*classes entries for a vote forest, and nil
// for a margin one (two-class or boosted). This is the traversal: the order
// rows and trees are visited in is decided here, the node layout in Seal and
// step, and nowhere else.
// Trees are streamed over the block; within a tree the rows still walking go
// down in groups of 8 (lockstep), the remainder one at a time through the
// same step, and each row's leaf then adds its margin or its vote.
func (c *Compiled) scoreBlock(x []float32, features int, rows []int32, out []int, votes []int32) {
	nb, nodes, margin, classes, trees := len(rows), c.nodes, c.margin, c.classes, len(c.depth)
	// Entry i of offs (offset into x), pos (place in the block), margins and
	// votes is one row; the first live entries are the rows still walking.
	var offs [rowBlockSize]int
	var pos [rowBlockSize]uint8
	var margins [rowBlockSize]float64
	for r, row := range rows {
		offs[r], pos[r], margins[r] = int(row)*features, uint8(r), c.base
	}
	if margin == nil {
		votes = votes[:nb*classes]
		clear(votes)
	}
	live, check := nb, c.firstCheck()
	var leaf [rowBlockSize]int32
	for t, steps := range c.depth {
		// Whole groups: decided rows pad the last, as no vote moves their argmax.
		walk := min(nb, (live+lanes-1)/lanes*lanes)
		root := c.treeStart[t]
		r := 0
		for ; r+lanes <= walk; r += lanes {
			lockstep(nodes, x, (*[lanes]int)(offs[r:]), root, steps, (*[lanes]int32)(leaf[r:]))
		}
		for ; r < walk; r++ {
			idx := root
			for n := &nodes[idx]; n.class < 0; n = &nodes[idx] {
				idx = n.step(x, offs[r])
			}
			leaf[r] = idx
		}
		if margin != nil {
			for r, l := range leaf[:walk] {
				margins[r] += margin[l]
			}
		} else {
			for r, l := range leaf[:walk] {
				votes[r*classes+int(nodes[l].class)]++
			}
		}
		if t < check {
			continue
		}
		// Decided rows swap behind the rest (each entry stays a distinct row).
		// A tree closes a gap by at most 2, so the smallest sets the next check.
		rem, minGap, undecided := trees-t-1, trees, 0
		for i := 0; i < live; i++ {
			var gap int
			if margin == nil {
				gap = voteGap(votes[i*classes:(i+1)*classes], rem)
			} else {
				gap = marginGap(int(margins[i]), rem)
			}
			if gap > 0 {
				minGap = min(minGap, gap)
				if margin == nil {
					v := votes[i*classes : (i+1)*classes]
					for j, u := range votes[undecided*classes : (undecided+1)*classes] {
						v[j], votes[undecided*classes+j] = u, v[j]
					}
				}
				margins[i], margins[undecided] = margins[undecided], margins[i]
				offs[i], offs[undecided] = offs[undecided], offs[i]
				pos[i], pos[undecided] = pos[undecided], pos[i]
				undecided++
			}
		}
		if live, check = undecided, t+(minGap+1)/2; live == 0 {
			break
		}
	}
	for r := 0; r < nb; r++ {
		switch {
		case margin == nil:
			out[pos[r]] = argmax(votes[r*classes : (r+1)*classes])
		case margins[r] > 0:
			out[pos[r]] = 1
		default:
			out[pos[r]] = 0
		}
	}
}

// exitMinTrees is the smallest vote forest whose decided rows stop walking.
const exitMinTrees = 32

// firstCheck is the first tree t after which a row can be decided — its
// trees-t-1 votes to come no more than the t+1 cast — or, where the exit is
// off, the tree count: never.
func (c *Compiled) firstCheck() int {
	if trees := len(c.depth); !c.boosted && trees >= exitMinTrees {
		return (trees - 1) / 2
	}
	return len(c.depth)
}

// marginGap is voteGap([v0, v1], rem) in closed form for m = v1 − v0: m + rem
// while class 0 leads or ties, rem − m + 1 once class 1 leads.
func marginGap(m, rem int) int {
	if m > 0 {
		m = 1 - m
	}
	return max(0, m+rem)
}

// voteGap is how far votes v, with rem still to cast, are from decided: 0
// once no casting of them moves argmax(v) (lowest index winning ties), else
// the most another class can finish ahead, a tie it wins counting 1.
func voteGap(v []int32, rem int) int {
	best, gap := argmax(v), 0
	for j, n := range v {
		if g := int(n) + rem - int(v[best]); j < best {
			gap = max(gap, g+1)
		} else if j > best {
			gap = max(gap, g)
		}
	}
	return gap
}

// step is one level of one row's descent: from node n to its left child when
// the row's feature is below the threshold and to its right child otherwise
// — including when either is NaN — and nowhere from a leaf. The comparison
// only materialises a 0 or a 1 to add to the child index, which compiles to
// no conditional jump. off is the row's offset into x.
func (n *node) step(x []float32, off int) int32 {
	var lt int32
	if x[off+int(n.feature)] < n.threshold {
		lt = 1
	}
	return n.child + lt
}

// lockstep walks the 8 rows at offsets offs down the tree at root together,
// for at most steps levels, and stores the leaves they reach. The lanes are
// eight scalars, not an array, so they live in registers; the walk ends
// early once all eight sit on leaves (no lane's node has the split mark).
func lockstep(nodes []node, x []float32, offs *[lanes]int, root, steps int32, leaf *[lanes]int32) {
	i0, i1, i2, i3, i4, i5, i6, i7 := root, root, root, root, root, root, root, root
	for s := int32(0); s < steps; s++ {
		n0, n1, n2, n3 := &nodes[i0], &nodes[i1], &nodes[i2], &nodes[i3]
		n4, n5, n6, n7 := &nodes[i4], &nodes[i5], &nodes[i6], &nodes[i7]
		if n0.class|n1.class|n2.class|n3.class|n4.class|n5.class|n6.class|n7.class >= 0 {
			break
		}
		i0, i1, i2, i3 = n0.step(x, offs[0]), n1.step(x, offs[1]), n2.step(x, offs[2]), n3.step(x, offs[3])
		i4, i5, i6, i7 = n4.step(x, offs[4]), n5.step(x, offs[5]), n6.step(x, offs[6]), n7.step(x, offs[7])
	}
	leaf[0], leaf[1], leaf[2], leaf[3], leaf[4], leaf[5], leaf[6], leaf[7] = i0, i1, i2, i3, i4, i5, i6, i7
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
