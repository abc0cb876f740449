package forest

import (
	"fmt"
	"math"
	"sort"

	"accelscore/internal/dataset"
	"accelscore/internal/xrand"
)

// Criterion selects the impurity measure used by CART splits.
type Criterion int

const (
	// Gini is the Gini impurity (Scikit-learn's classifier default).
	Gini Criterion = iota
	// Entropy is information gain.
	Entropy
	// MSE is mean squared error, used for regression trees.
	MSE
)

// String returns the criterion name.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	case MSE:
		return "mse"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// TrainConfig controls tree induction.
type TrainConfig struct {
	// MaxDepth bounds the tree depth (the paper trains 6- and 10-level
	// trees). Zero means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum training rows per leaf (default 1).
	MinSamplesLeaf int
	// Criterion is the impurity measure (default Gini).
	Criterion Criterion
	// MaxFeatures is the number of features considered per split; zero
	// means all features for single trees and sqrt(features) for forests
	// (the Scikit-learn convention).
	MaxFeatures int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// TrainTree induces a single CART tree on the rows of d selected by indices
// (all rows when indices is nil), using rng for feature subsampling.
func TrainTree(d *dataset.Dataset, indices []int, cfg TrainConfig, rng *xrand.Rand) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Y) == 0 {
		return nil, fmt.Errorf("forest: training requires labels")
	}
	cfg = cfg.withDefaults()
	if indices == nil {
		indices = make([]int, d.NumRecords())
		for i := range indices {
			indices[i] = i
		}
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("forest: no training rows")
	}
	b := &builder{d: d, cfg: cfg, rng: rng}
	root := b.build(indices, 0)
	return &Tree{Root: root, NumFeatures: d.NumFeatures(), NumClasses: d.NumClasses()}, nil
}

type builder struct {
	d   *dataset.Dataset
	cfg TrainConfig
	rng *xrand.Rand
}

// build recursively grows the subtree over the given training rows.
func (b *builder) build(rows []int, depth int) *Node {
	n := &Node{Samples: len(rows)}
	n.Class, n.Value = b.summary(rows)

	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return n
	}
	if len(rows) < 2*b.cfg.MinSamplesLeaf || b.pure(rows) {
		return n
	}
	feature, threshold, ok := b.bestSplit(rows)
	if !ok {
		return n
	}
	left, right := b.partition(rows, feature, threshold)
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return n
	}
	n.Feature = feature
	n.Threshold = threshold
	n.Left = b.build(left, depth+1)
	n.Right = b.build(right, depth+1)
	return n
}

// summary returns the majority class and mean target of the rows.
func (b *builder) summary(rows []int) (class int, value float64) {
	counts := make([]int, max(b.d.NumClasses(), 1))
	var sum float64
	for _, r := range rows {
		y := b.d.Y[r]
		if y < len(counts) {
			counts[y]++
		}
		sum += float64(y)
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best, sum / float64(len(rows))
}

// pure reports whether all rows share one label.
func (b *builder) pure(rows []int) bool {
	first := b.d.Y[rows[0]]
	for _, r := range rows[1:] {
		if b.d.Y[r] != first {
			return false
		}
	}
	return true
}

// candidateFeatures returns the features examined for a split, honoring
// MaxFeatures with a deterministic random subset.
func (b *builder) candidateFeatures() []int {
	f := b.d.NumFeatures()
	k := b.cfg.MaxFeatures
	if k <= 0 || k >= f {
		all := make([]int, f)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := b.rng.Perm(f)
	return perm[:k]
}

// bestSplit scans candidate features for the impurity-minimizing threshold.
func (b *builder) bestSplit(rows []int) (feature int, threshold float32, ok bool) {
	bestScore := math.Inf(1)
	vals := make([]rowVal, len(rows))
	for _, f := range b.candidateFeatures() {
		for i, r := range rows {
			vals[i] = rowVal{v: b.d.Row(r)[f], y: b.d.Y[r]}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

		// Incremental impurity over the sorted order: move one row at a
		// time from right to left and evaluate the split between distinct
		// values.
		score := b.scanSplits(vals, func(i int) bool {
			return vals[i].v != vals[i+1].v
		}, &threshold, &feature, f, bestScore)
		if score < bestScore {
			bestScore = score
			ok = true
		}
	}
	return feature, threshold, ok
}

// rowVal pairs one row's feature value with its label for split scanning.
type rowVal struct {
	v float32
	y int
}

// scanSplits evaluates every valid split position for one feature and
// returns the best impurity found; it writes the winning threshold/feature
// through the out-params when it improves on bestSoFar.
func (b *builder) scanSplits(vals []rowVal, boundary func(int) bool, outThreshold *float32, outFeature *int, feature int, bestSoFar float64) float64 {
	n := len(vals)
	best := math.Inf(1)

	switch b.cfg.Criterion {
	case MSE:
		// Regression: track sums for variance computation.
		var totalSum, totalSq float64
		for _, rv := range vals {
			totalSum += float64(rv.y)
			totalSq += float64(rv.y) * float64(rv.y)
		}
		var leftSum, leftSq float64
		for i := 0; i < n-1; i++ {
			y := float64(vals[i].y)
			leftSum += y
			leftSq += y * y
			if !boundary(i) {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < b.cfg.MinSamplesLeaf || int(nr) < b.cfg.MinSamplesLeaf {
				continue
			}
			rightSum, rightSq := totalSum-leftSum, totalSq-leftSq
			mseL := leftSq/nl - (leftSum/nl)*(leftSum/nl)
			mseR := rightSq/nr - (rightSum/nr)*(rightSum/nr)
			score := (nl*mseL + nr*mseR) / float64(n)
			if score < best {
				best = score
				if score < bestSoFar {
					*outThreshold = midpoint(vals[i].v, vals[i+1].v)
					*outFeature = feature
				}
			}
		}
	default:
		classes := max(b.d.NumClasses(), 1)
		leftCounts := make([]int, classes)
		rightCounts := make([]int, classes)
		for _, rv := range vals {
			rightCounts[rv.y]++
		}
		for i := 0; i < n-1; i++ {
			leftCounts[vals[i].y]++
			rightCounts[vals[i].y]--
			if !boundary(i) {
				continue
			}
			nl, nr := i+1, n-i-1
			if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
				continue
			}
			var score float64
			if b.cfg.Criterion == Entropy {
				score = weightedEntropy(leftCounts, nl, rightCounts, nr)
			} else {
				score = weightedGini(leftCounts, nl, rightCounts, nr)
			}
			if score < best {
				best = score
				if score < bestSoFar {
					*outThreshold = midpoint(vals[i].v, vals[i+1].v)
					*outFeature = feature
				}
			}
		}
	}
	return best
}

// midpoint returns the split threshold between two consecutive sorted
// values, guaranteed to send the lower value left under the `<` rule.
func midpoint(a, c float32) float32 {
	m := a + (c-a)/2
	if m <= a { // float rounding collapsed the midpoint
		m = c
	}
	return m
}

func weightedGini(left []int, nl int, right []int, nr int) float64 {
	return (float64(nl)*gini(left, nl) + float64(nr)*gini(right, nr)) / float64(nl+nr)
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

func weightedEntropy(left []int, nl int, right []int, nr int) float64 {
	return (float64(nl)*entropy(left, nl) + float64(nr)*entropy(right, nr)) / float64(nl+nr)
}

func entropy(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// partition splits rows by the (<threshold -> left) rule.
func (b *builder) partition(rows []int, feature int, threshold float32) (left, right []int) {
	for _, r := range rows {
		if b.d.Row(r)[feature] < threshold {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}
