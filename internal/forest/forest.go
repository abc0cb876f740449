package forest

import (
	"fmt"
	"math"
	"runtime"

	"accelscore/internal/dataset"
	"accelscore/internal/xrand"
)

// Kind distinguishes classification from regression forests (paper §II:
// "random forest regressor ... average of each tree's prediction; random
// forest classifier ... majority vote").
type Kind int

const (
	// Classifier forests predict by majority vote.
	Classifier Kind = iota
	// Regressor forests predict by averaging tree values.
	Regressor
	// Boosted ensembles are gradient-boosted binary classifiers: the class
	// is sigmoid(BaseScore + sum of tree values) > 0.5 (§III-A lists
	// gradient-boost models among those the tensor compiler supports).
	Boosted
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Regressor:
		return "regressor"
	case Boosted:
		return "boosted"
	default:
		return "classifier"
	}
}

// Forest is a trained random forest.
type Forest struct {
	// Trees are the ensemble members.
	Trees []*Tree
	// Kind selects vote vs average aggregation.
	Kind Kind
	// NumFeatures and NumClasses record the training schema.
	NumFeatures int
	NumClasses  int
	// FeatureNames and ClassNames carry display metadata from the training
	// set.
	FeatureNames []string
	ClassNames   []string
	// BaseScore is the boosted ensemble's initial log-odds (zero for other
	// kinds).
	BaseScore float64
}

// ForestConfig controls ensemble training.
type ForestConfig struct {
	// NumTrees is the ensemble size (the paper sweeps 1..128).
	NumTrees int
	// Tree configures the individual CART inductions.
	Tree TrainConfig
	// Kind selects classifier or regressor aggregation.
	Kind Kind
	// Seed makes training deterministic.
	Seed uint64
	// Bootstrap enables bagging (sampling training rows with replacement);
	// disabled, every tree sees all rows and diversity comes only from
	// feature subsampling.
	Bootstrap bool
}

// Train fits a random forest on d. Feature subsampling defaults to
// sqrt(features) when the ensemble has more than one tree, following
// Scikit-learn (paper ref [31]).
func Train(d *dataset.Dataset, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("forest: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Y) == 0 {
		return nil, fmt.Errorf("forest: training requires labels")
	}
	treeCfg := cfg.Tree
	if treeCfg.MaxFeatures == 0 && cfg.NumTrees > 1 {
		treeCfg.MaxFeatures = int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	}
	if cfg.Kind == Regressor {
		treeCfg.Criterion = MSE
	}

	rng := xrand.New(cfg.Seed)
	f := &Forest{
		Kind:         cfg.Kind,
		NumFeatures:  d.NumFeatures(),
		NumClasses:   d.NumClasses(),
		FeatureNames: append([]string(nil), d.FeatureNames...),
		ClassNames:   append([]string(nil), d.ClassNames...),
	}
	n := d.NumRecords()
	for t := 0; t < cfg.NumTrees; t++ {
		treeRng := rng.Split()
		var indices []int
		if cfg.Bootstrap && cfg.NumTrees > 1 {
			indices = make([]int, n)
			for i := range indices {
				indices[i] = treeRng.Intn(n)
			}
		}
		tree, err := TrainTree(d, indices, treeCfg, treeRng)
		if err != nil {
			return nil, fmt.Errorf("forest: training tree %d: %w", t, err)
		}
		f.Trees = append(f.Trees, tree)
	}
	return f, nil
}

// PredictClass returns the predicted class for one row: the majority vote
// for classifiers (ties resolve to the lowest class index, the convention
// shared by every backend), or the thresholded margin for boosted
// ensembles.
func (f *Forest) PredictClass(row []float32) int {
	if f.Kind == Boosted {
		if f.Margin(row) > 0 {
			return 1
		}
		return 0
	}
	votes := make([]int, max(f.NumClasses, 1))
	for _, t := range f.Trees {
		votes[t.PredictClass(row)]++
	}
	return Argmax(votes)
}

// Margin returns the boosted ensemble's raw score (log-odds) for one row:
// BaseScore plus the sum of the trees' leaf values.
func (f *Forest) Margin(row []float32) float64 {
	s := f.BaseScore
	for _, t := range f.Trees {
		s += t.PredictValue(row)
	}
	return s
}

// PredictBatch classifies every row of d through the shared flat traversal
// kernel (compiled on the fly; forests that fail to compile — e.g. partially
// constructed ones — fall back to the pointer walk so behavior is
// unchanged).
func (f *Forest) PredictBatch(d *dataset.Dataset) []int {
	n := d.NumRecords()
	out := make([]int, n)
	if n == 0 {
		return out
	}
	features := d.NumFeatures()
	if c, err := f.Compile(); err == nil {
		c.Predict(d.X[:n*features], features, out, runtime.GOMAXPROCS(0))
		return out
	}
	for i := range out {
		out[i] = f.PredictClass(d.Row(i))
	}
	return out
}

// Accuracy returns the fraction of rows of d whose prediction matches the
// label.
func (f *Forest) Accuracy(d *dataset.Dataset) float64 {
	if d.NumRecords() == 0 {
		return 0
	}
	preds := f.PredictBatch(d)
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.NumRecords())
}

// Validate checks every tree's structural invariants.
func (f *Forest) Validate() error {
	if len(f.Trees) == 0 {
		return fmt.Errorf("forest: empty ensemble")
	}
	if f.Kind == Boosted && f.NumClasses != 2 {
		return fmt.Errorf("forest: boosted ensembles are binary classifiers, got %d classes", f.NumClasses)
	}
	for i, t := range f.Trees {
		if t.NumFeatures != f.NumFeatures || t.NumClasses != f.NumClasses {
			return fmt.Errorf("forest: tree %d schema %d/%d != forest schema %d/%d",
				i, t.NumFeatures, t.NumClasses, f.NumFeatures, f.NumClasses)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
	}
	return nil
}

// Argmax returns the index of the maximum count, lowest index winning ties.
func Argmax(counts []int) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// Stats summarizes the structural properties that drive every timing model.
type Stats struct {
	// Trees is the ensemble size.
	Trees int
	// MaxDepth is the deepest tree's depth.
	MaxDepth int
	// AvgPathLength is the sample-weighted mean root-to-leaf path length
	// across trees — the visits-per-record-per-tree the CPU/GPU models use.
	AvgPathLength float64
	// TotalNodes and TotalLeaves count actual (unpadded) nodes.
	TotalNodes, TotalLeaves int
	// Features and Classes are the model schema.
	Features, Classes int
}

// ComputeStats derives Stats from a trained forest.
func (f *Forest) ComputeStats() Stats {
	s := Stats{
		Trees:    len(f.Trees),
		Features: f.NumFeatures,
		Classes:  f.NumClasses,
	}
	var pathSum float64
	for _, t := range f.Trees {
		if d := t.Depth(); d > s.MaxDepth {
			s.MaxDepth = d
		}
		s.TotalNodes += t.NodeCount()
		s.TotalLeaves += t.LeafCount()
		pathSum += t.AvgPathLength()
	}
	if len(f.Trees) > 0 {
		s.AvgPathLength = pathSum / float64(len(f.Trees))
	}
	return s
}

// SyntheticStats builds Stats for a hypothetical full model without training
// it — the advisor and the figure sweeps use this to evaluate configurations
// (e.g. 128 trees, depth 10) at any scale instantly.
func SyntheticStats(trees, depth, features, classes int) Stats {
	nodesPerTree := (1 << uint(depth+1)) - 1
	leavesPerTree := 1 << uint(depth)
	return Stats{
		Trees:         trees,
		MaxDepth:      depth,
		AvgPathLength: float64(depth),
		TotalNodes:    trees * nodesPerTree,
		TotalLeaves:   trees * leavesPerTree,
		Features:      features,
		Classes:       classes,
	}
}

// Visits returns the expected total node visits for scoring records rows:
// records x trees x average path length.
func (s Stats) Visits(records int64) int64 {
	return int64(float64(records) * float64(s.Trees) * s.AvgPathLength)
}
