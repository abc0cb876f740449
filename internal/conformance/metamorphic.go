package conformance

import (
	"fmt"
	"slices"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/xrand"
)

// metaRows caps the rows used by the metamorphic transforms: the invariants
// are per-row properties, so a bounded slice keeps the matrix cheap without
// weakening coverage.
const metaRows = 96

// metamorphicChecks verifies the transformation invariants on one engine:
//
//   - permuting the input rows permutes the predictions identically;
//   - reordering the ensemble's trees leaves predictions unchanged
//     (classifiers: votes are order-free; boosted ensembles are excluded
//     because float addition is not associative);
//   - appending a duplicate feature column no tree references leaves
//     predictions unchanged;
//   - scoring each tree as a single-tree forest and majority-voting the
//     per-tree results reproduces the full-forest predictions (classifiers).
func (r *Runner) metamorphicChecks(rep *Report, c Case, eng backend.Backend) {
	name := eng.Name()
	data := c.Data.Head(min(metaRows, c.Data.NumRecords()))
	n := data.NumRecords()

	base, err := eng.Score(&backend.Request{Forest: c.Forest, Data: data})
	if err != nil {
		rep.skip(c.Name, name, "metamorphic", err.Error())
		return
	}

	// Row permutation: rows move, predictions move with them.
	perm := xrand.New(Seed ^ uint64(n)).Perm(n)
	permed, err := eng.Score(&backend.Request{Forest: c.Forest, Data: permuteRows(data, perm)})
	permOK := true
	if err != nil {
		rep.fail(c.Name, name, "meta-row-permutation", err.Error())
		permOK = false
	} else {
		for i := 0; i < n; i++ {
			if permed.Predictions[i] != base.Predictions[perm[i]] {
				rep.fail(c.Name, name, "meta-row-permutation",
					fmt.Sprintf("permuted row %d (source %d): %d vs %d",
						i, perm[i], permed.Predictions[i], base.Predictions[perm[i]]))
				permOK = false
				break
			}
		}
	}
	if permOK {
		rep.pass(c.Name, name, "meta-row-permutation")
	}

	// Tree reordering (classifiers only: vote counts are permutation-free,
	// while boosted margins sum floats whose addition order matters at the
	// last ulp).
	if c.Forest.Kind == forest.Classifier && len(c.Forest.Trees) > 1 {
		rev, err := eng.Score(&backend.Request{Forest: reversedTrees(c.Forest), Data: data})
		if err != nil {
			rep.fail(c.Name, name, "meta-tree-reorder", err.Error())
		} else if d := firstDiff(rev.Predictions, base.Predictions); d >= 0 {
			rep.fail(c.Name, name, "meta-tree-reorder",
				fmt.Sprintf("row %d: reversed-ensemble prediction %d vs %d", d, rev.Predictions[d], base.Predictions[d]))
		} else {
			rep.pass(c.Name, name, "meta-tree-reorder")
		}
	}

	// Duplicate feature column: widen the schema by one column no tree
	// references; every engine must ignore it.
	dup, err := eng.Score(&backend.Request{Forest: widenedForest(c.Forest), Data: duplicatedColumn(data)})
	if err != nil {
		rep.fail(c.Name, name, "meta-duplicate-column", err.Error())
	} else if d := firstDiff(dup.Predictions, base.Predictions); d >= 0 {
		rep.fail(c.Name, name, "meta-duplicate-column",
			fmt.Sprintf("row %d: widened-schema prediction %d vs %d", d, dup.Predictions[d], base.Predictions[d]))
	} else {
		rep.pass(c.Name, name, "meta-duplicate-column")
	}

	// Single-tree-sum decomposition (classifiers, bounded ensembles): the
	// engine's own per-tree predictions, majority-voted, must reproduce its
	// full-forest output — an engine-level vote-count check that needs no
	// vote-exposing API.
	if c.Forest.Kind == forest.Classifier && len(c.Forest.Trees) > 1 && len(c.Forest.Trees) <= 16 {
		votes := make([][]int, n)
		classes := max(c.Forest.NumClasses, 1)
		for i := range votes {
			votes[i] = make([]int, classes)
		}
		ok := true
		for t := range c.Forest.Trees {
			single, err := eng.Score(&backend.Request{Forest: singleTreeForest(c.Forest, t), Data: data})
			if err != nil {
				rep.fail(c.Name, name, "meta-decomposition",
					fmt.Sprintf("tree %d: %v", t, err))
				ok = false
				break
			}
			for i, p := range single.Predictions {
				votes[i][p]++
			}
		}
		if ok {
			for i := 0; i < n; i++ {
				if got := forest.Argmax(votes[i]); got != base.Predictions[i] {
					rep.fail(c.Name, name, "meta-decomposition",
						fmt.Sprintf("row %d: summed per-tree votes %v give %d, full forest %d",
							i, votes[i], got, base.Predictions[i]))
					ok = false
					break
				}
			}
		}
		if ok {
			rep.pass(c.Name, name, "meta-decomposition")
		}
	}
}

// permuteRows builds a dataset whose row i is d's row perm[i].
func permuteRows(d *dataset.Dataset, perm []int) *dataset.Dataset {
	f := d.NumFeatures()
	out := &dataset.Dataset{
		Name:         d.Name + "_perm",
		FeatureNames: append([]string(nil), d.FeatureNames...),
		ClassNames:   append([]string(nil), d.ClassNames...),
		X:            make([]float32, len(perm)*f),
	}
	for i, src := range perm {
		copy(out.X[i*f:(i+1)*f], d.Row(src))
	}
	return out
}

// duplicatedColumn appends a copy of column 0 to every row.
func duplicatedColumn(d *dataset.Dataset) *dataset.Dataset {
	f := d.NumFeatures()
	n := d.NumRecords()
	out := &dataset.Dataset{
		Name:         d.Name + "_dup",
		FeatureNames: append(append([]string(nil), d.FeatureNames...), "dup0"),
		ClassNames:   append([]string(nil), d.ClassNames...),
		X:            make([]float32, 0, n*(f+1)),
	}
	for i := 0; i < n; i++ {
		row := d.Row(i)
		out.X = append(out.X, row...)
		out.X = append(out.X, row[0])
	}
	return out
}

// widenedForest declares one extra (never referenced) feature in the
// schema, sharing the tree structure.
func widenedForest(f *forest.Forest) *forest.Forest {
	out := &forest.Forest{
		Kind:        f.Kind,
		NumFeatures: f.NumFeatures + 1,
		NumClasses:  f.NumClasses,
		FeatureNames: append(append([]string(nil), f.FeatureNames...),
			"dup0"),
		ClassNames: append([]string(nil), f.ClassNames...),
		BaseScore:  f.BaseScore,
	}
	for _, t := range f.Trees {
		tt := *t
		tt.NumFeatures = f.NumFeatures + 1
		out.Trees = append(out.Trees, &tt)
	}
	return out
}

// reversedTrees clones the forest with the ensemble order reversed.
func reversedTrees(f *forest.Forest) *forest.Forest {
	out := *f
	out.Trees = slices.Clone(f.Trees)
	slices.Reverse(out.Trees)
	return &out
}
