// The scoring exit of the table store. A table keeps its REAL columns in one
// row-major block (see Table), which is the layout the scoring kernel reads,
// so the dataset a scoring query sees is a slice of that block — rows [0, n)
// of the table at the moment of the call — and not a conversion of it: no
// cell is read, nothing is copied, and there is no cache to fill, key or
// invalidate. Only a projection that is not the block's own columns pays a
// copy (DatasetFor).
//
// Sized on 20 000 × 28 before this layout was chosen: converting 56-byte
// Value cells to row-major took 6.6–7.0 ms; typed []float32 columns gathered
// to row-major still 3.3–4.5 ms (the strided scatter and the 2.2 MB
// allocation remain); slicing a row-major block 4–9 ns. Typed columns plus a
// conversion buys less than half — do not retry it.
package db

import (
	"fmt"
	"slices"

	"accelscore/internal/dataset"
)

// DatasetSnapshotFor returns the named REAL columns of the first limit rows
// (every row when limit <= 0 or limit >= the row count) as a row-major
// dataset without labels — scoring never reads them.
//
// When the projection is the table's REAL columns in schema order — what nil
// means, and what a table made from a model's own dataset yields — the result
// is a view: X is block[:n*W:n*W], taken under the read lock, and hit is
// true. The view is a snapshot of one table state because the cells it covers
// are never written again (the invariant Table documents; appends, UPDATE,
// DELETE and DeleteModel uphold it), and its capacity is clipped so that a
// consumer's append cannot reach the live tail. It shares memory with the
// table and every other view: treat it, FeatureNames included, as read-only.
//
// Any other projection (a subset, a reordering, a table with REAL columns the
// model does not read) is gathered into a dataset the caller owns — DatasetFor
// — on every call, and hit is false: contiguous float reads, about 1 ns a
// cell, uncached on purpose.
func (t *Table) DatasetSnapshotFor(features []string, limit int) (d *dataset.Dataset, hit bool, err error) {
	// A table without REAL columns has nothing to view; DatasetFor says so.
	if len(t.realNames) == 0 || features != nil && !slices.Equal(features, t.realNames) {
		d, err = t.DatasetFor(features, limit)
		return d, false, err
	}
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	n := t.boundLocked(limit) * len(t.realNames)
	return &dataset.Dataset{Name: t.Name, FeatureNames: t.realNames, X: t.block[:n:n]}, true, nil
}

// DatasetFor copies the named REAL columns (nil: all of them, in schema
// order) of the first limit rows into a dataset the caller owns. It is the
// one copying conversion on the scoring path: DatasetSnapshotFor falls back
// to it, and the baseline pipeline — which deliberately repeats
// pre-processing per query — calls it directly.
func (t *Table) DatasetFor(features []string, limit int) (*dataset.Dataset, error) {
	if features == nil {
		features = t.realNames
		if len(features) == 0 {
			return nil, fmt.Errorf("db: table %q has no REAL feature columns", t.Name)
		}
	}
	pos, err := t.featurePositions(features)
	if err != nil {
		return nil, err
	}
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	n, f, w := t.boundLocked(limit), len(pos), len(t.realNames)
	x := make([]float32, n*f)
	if slices.Equal(features, t.realNames) {
		copy(x, t.block)
	} else {
		for r := 0; r < n; r++ {
			src, dst := t.block[r*w:(r+1)*w], x[r*f:(r+1)*f]
			for j, p := range pos {
				dst[j] = src[p]
			}
		}
	}
	return &dataset.Dataset{Name: t.Name, FeatureNames: slices.Clone(features), X: x}, nil
}

// boundLocked is the number of rows a limit admits; callers hold rowsMu.
func (t *Table) boundLocked(limit int) int {
	if limit > 0 && limit < t.rows {
		return limit
	}
	return t.rows
}

// featurePositions maps feature names to their offsets in a block row.
func (t *Table) featurePositions(features []string) ([]int, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("db: table %q: empty feature projection", t.Name)
	}
	pos := make([]int, len(features))
	for i, f := range features {
		ci := t.ColumnIndex(f)
		if ci < 0 {
			return nil, fmt.Errorf("db: table %q has no column %q", t.Name, f)
		}
		if t.Columns[ci].Type != Float32Col {
			return nil, fmt.Errorf("db: table %q column %q is %s, features must be REAL",
				t.Name, f, t.Columns[ci].Type)
		}
		pos[i] = t.cols[ci].pos
	}
	return pos, nil
}

// NumericColumnPrefix extracts the first limit values (every row when limit
// <= 0) of a REAL or BIGINT column as float64s — the operand vector for a
// pushed-down predicate over a column that is not one of the model's
// features.
func (t *Table) NumericColumnPrefix(name string, limit int) ([]float64, error) {
	ci := t.ColumnIndex(name)
	if ci < 0 {
		return nil, fmt.Errorf("db: table %q has no column %q", t.Name, name)
	}
	typ := t.Columns[ci].Type
	if typ != Float32Col && typ != Int64Col {
		return nil, fmt.Errorf("db: table %q column %q is %s, predicates need a numeric column",
			t.Name, name, typ)
	}
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	out := make([]float64, t.boundLocked(limit))
	c, w := &t.cols[ci], len(t.realNames)
	for r := range out {
		if typ == Float32Col {
			out[r] = float64(t.block[r*w+c.pos])
		} else {
			out[r] = float64(c.ints[r])
		}
	}
	return out, nil
}
