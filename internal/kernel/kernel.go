// Package kernel implements the shared flat-traversal scoring kernel every
// functional CPU path uses: a forest lowered once into one slice of packed
// 16-byte nodes and scored a block of up to 64 rows at a time, every tree
// streamed over the block, eight rows walking each tree in lock-step, fanned
// out over a GOMAXPROCS-sized worker pool. DESIGN.md §7 has the measurements
// behind each choice below and the variants measured and rejected.
//
// Scoring is written once. Predict, PredictSel and PredictAggregate are the
// same call with different (selection, output) arguments: score splits the
// rows among workers, scoreRange fills each block with the next rows to
// score (gathering survivors across selection words, so a sparse filter
// still forms full groups) and stores or tallies their predictions,
// scoreBlock streams every tree over the block, and step is one level of one
// row's descent. walk is a second, deliberately independent spelling of the
// descent, over the builder's arrays, for the row-at-a-time oracle
// PredictRow, which the batch path is tested against.
//
// Layout. Seal re-lays every tree breadth-first into one []node of
// {feature int32, threshold float32, child int32, class int32}: one 16-byte
// load brings everything a level needs. Siblings are adjacent, so a level is
//
//	var lt int32; if row[n.feature] < n.threshold { lt = 1 }; idx = n.child + lt
//
// which go1.24 compiles to no conditional jump. It is the same float32 `<`
// as ever — false when either side is NaN, so NaN goes right. A leaf is a
// self-loop (child its own index, threshold NaN), so rows that reach their
// leaf early idle there while their group walks on; a group stops once all
// its lanes are on leaves (splits carry class -1).
//
// Votes. A vote forest of one or of three or more classes counts a row's
// votes in one uint64, class j's in the w = bits.Len(trees) bits at bit j·w
// (a word per class when K·w > 64): a vote is one add of 1<<(j·w). A
// two-class forest keeps one margin, v1 − v0, as a boosted one its float
// sum. A vote forest of 32 trees or more (fewer, and checks cost more than
// they save) stops walking a row once no casting of the votes still to come
// can change its argmax, lowest index winning ties — exact integer
// arithmetic, so predictions stay bit-identical. Checks start once as many
// votes are cast as remain, then wait ⌈gap/2⌉ trees, and decided rows pad
// the last group of 8; a boosted sum walks every tree.
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
// class it votes for (0 in a boosted ensemble).
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

	// Packed form, built by Seal: the nodes breadth-first per tree, parallel
	// leaf margins (boosted values or two-class ±1 votes) or increments, each
	// tree's depth, the largest feature read, and a tally's words and width.
	nodes        []node
	margin       []float64
	inc          []uint64
	depth        []int32
	maxFeature   int32
	width, words int

	classes int
	boosted bool
	base    float64
	sealed  bool
}

// New returns an empty compiled form ready for tree emission. classes is the
// vote-vector width (at least 1; 2 for a boosted ensemble, which predicts 0
// or 1); boosted selects margin aggregation with base as the initial
// log-odds. A vote forest ignores base.
func New(classes int, boosted bool, base float64) *Compiled {
	if !boosted {
		return &Compiled{classes: max(classes, 1)}
	}
	return &Compiled{classes: max(classes, 2), boosted: true, base: base}
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
	c.depth = make([]int32, len(c.treeStart)-1)
	if c.boosted || c.classes == 2 {
		c.margin = make([]float64, len(c.featureIdx))
	} else {
		c.inc = make([]uint64, len(c.featureIdx))
		if c.width, c.words = bits.Len(uint(len(c.depth))), 1; c.classes*c.width > 64 {
			c.width, c.words = 64, c.classes
		}
	}
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
			} else {
				c.inc[p] = 1 << (int(class) * c.width & 63)
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
// (length >= NumClasses()) without ever materializing a per-row prediction
// vector. sel may be nil to aggregate over every row (n rows of x).
func (c *Compiled) PredictAggregate(x []float32, features int, n int, sel *Selection, counts []int64, workers int) {
	if len(counts) < c.classes {
		panic(fmt.Sprintf("kernel: PredictAggregate counts length %d < classes %d", len(counts), c.classes))
	}
	if sel != nil {
		n = sel.Len()
	}
	c.score(x, features, n, sel, nil, counts, workers)
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
	if maxProcs := runtime.GOMAXPROCS(0); workers <= 0 || workers > maxProcs {
		workers = maxProcs
	}
	numBlocks := (n + rowBlockSize - 1) / rowBlockSize
	workers = min(workers, numBlocks)
	if workers <= 1 {
		c.scoreRange(x, features, sel, out, counts, 0, n)
		return
	}
	blocksPerWorker := (numBlocks + workers - 1) / workers
	var locals []int64
	classes := c.classes
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
	var wide []uint64 // a block's tallies, when one word does not hold a row's
	if c.words > 1 {
		wide = make([]uint64, rowBlockSize*c.words)
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
		c.scoreBlock(x, features, rows[:nb], dst, wide)
		if counts != nil {
			for _, cls := range dst {
				counts[cls]++
			}
		}
	}
}

// scoreBlock walks every tree for the rows of x listed in rows (at most one
// block) and writes their predicted classes into out[:len(rows)]; wide is
// scratch for tallies of more than one word. This is the traversal: the
// order rows and trees are visited in is decided here, the node layout in
// Seal and step. Each row's leaf adds its margin or its increment.
func (c *Compiled) scoreBlock(x []float32, features int, rows []int32, out []int, wide []uint64) {
	nb, nodes, margin, inc, trees := len(rows), c.nodes, c.margin, c.inc, len(c.depth)
	m, k, w := c.words, c.classes, uint(c.width)
	mask := uint64(1)<<w - 1
	// Entry i of offs (offset into x), pos (place in the block), margins and
	// the tally is one row; the first live entries are the rows still walking.
	var offs [rowBlockSize]int
	var pos [rowBlockSize]uint8
	var margins [rowBlockSize]float64
	for r, row := range rows {
		offs[r], pos[r], margins[r] = int(row)*features, uint8(r), c.base
	}
	var one [rowBlockSize]uint64 // the tallies, when one word holds a row's
	tally := one[:]
	if m > 1 {
		tally = wide[:nb*m]
		clear(tally)
	}
	live, check := nb, c.firstCheck()
	var leaf [rowBlockSize]int32
	for t, steps := range c.depth {
		// Whole groups: decided rows pad the last, as no vote moves their argmax.
		walk := min(nb, (live+lanes-1)/lanes*lanes)
		walkTree(nodes, x, &offs, walk, c.treeStart[t], steps, &leaf)
		// Decided rows swap behind the rest (each entry stays a distinct row).
		// A tree closes a gap by at most 2, so the smallest sets the next check.
		rem, minGap, undecided := trees-t-1, trees, 0
		if margin != nil {
			for r, l := range leaf[:walk] {
				margins[r] += margin[l]
			}
			if t < check {
				continue
			}
			for i := range live {
				if gap := marginGap(int(margins[i]), rem); gap > 0 {
					minGap = min(minGap, gap)
					margins[i], margins[undecided] = margins[undecided], margins[i]
					offs[i], offs[undecided] = offs[undecided], offs[i]
					pos[i], pos[undecided] = pos[undecided], pos[i]
					undecided++
				}
			}
		} else {
			if m == 1 {
				for r, l := range leaf[:walk] {
					one[r] += inc[l]
				}
			} else {
				for r, l := range leaf[:walk] {
					tally[r*m+int(nodes[l].class)] += inc[l]
				}
			}
			if t < check && rem > 0 {
				continue
			}
			// A tallied row writes its prediction once decided, which after
			// the last tree every row is.
			for i := range live {
				best, lead, chal := readTally(tally[i*m:(i+1)*m], k, w, mask)
				if chal+rem <= lead {
					out[pos[i]] = best
					continue
				}
				minGap = min(minGap, chal+rem-lead)
				for j := range m {
					tally[i*m+j], tally[undecided*m+j] = tally[undecided*m+j], tally[i*m+j]
				}
				offs[i], offs[undecided] = offs[undecided], offs[i]
				pos[i], pos[undecided] = pos[undecided], pos[i]
				undecided++
			}
		}
		if live, check = undecided, t+(minGap+1)/2; live == 0 {
			break
		}
	}
	// A margin row predicts by its sign. A tallied row was written once
	// decided; only a forest of no trees leaves any, at margin 0: class 0.
	if margin == nil {
		nb = live
	}
	for r, mr := range margins[:nb] {
		out[pos[r]] = 0
		if mr > 0 {
			out[pos[r]] = 1
		}
	}
}

// walkTree walks the first n rows at offs down the tree at root in groups of
// 8 (a last group's spare lanes walk offs' unused entries, row 0) and stores
// the leaves reached; apart, scoreBlock keeps its bookkeeping in registers.
func walkTree(nodes []node, x []float32, offs *[rowBlockSize]int, n int, root, steps int32, leaf *[rowBlockSize]int32) {
	for r := 0; r < n; r += lanes {
		lockstep(nodes, x, (*[lanes]int)(offs[r:]), root, steps, (*[lanes]int32)(leaf[r:]))
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

// marginGap is readTally's gap of [v0, v1] in closed form for m = v1 − v0:
// m + rem while class 0 leads or ties, rem − m + 1 once class 1 leads.
func marginGap(m, rem int) int {
	if m > 0 {
		m = 1 - m
	}
	return max(0, m+rem)
}

// readTally reads the k w-bit fields of tally t (mask their low bits) in one
// pass: the leader best (lowest index winning ties), its count lead and the
// best challenger's count chal, one below the leader counting one more. With
// rem votes to come the gap, max(0, chal+rem-lead), is 0 once no casting
// moves the argmax, else the most another class can finish ahead.
func readTally(t []uint64, k int, w uint, mask uint64) (best, lead, chal int) {
	lead, chal = int(t[0]&mask), math.MinInt32
	for j, sh := 1, w; j < k; j, sh = j+1, sh+w {
		n := int(t[min(j, len(t)-1)] >> (sh & 63) & mask)
		// A new leader is above every class so far: the old one counts one more.
		if chal = max(chal, n); n > lead {
			best, chal = j, lead+1
		}
		lead = max(lead, n)
	}
	return best, lead, chal
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
