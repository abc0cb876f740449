// Column-subset and row-bounded dataset snapshots: the column-store exit
// path of the fused scoring pipeline. Where DatasetSnapshot converts every
// REAL column of every row, DatasetSnapshotFor converts only the projected
// feature columns (projection pruning) and at most limit rows (@limit
// pushdown), and publishes every conversion in one cache per table, keyed on
// the column subset and valid for the table version it observed. A bounded
// conversion is the prefix [0, limit) of a table state, so it is a snapshot
// too: its entry just covers fewer rows. Within a version an entry is only
// replaced by one that covers more rows, so a prefix never displaces a full
// entry; a mutation strands them all through the version, nothing more.
package db

import (
	"fmt"
	"strings"

	"accelscore/internal/dataset"
)

// maxSubSnapshots bounds the per-table subset cache: a publish that finds it
// full first drops entries of older versions, then current ones.
const maxSubSnapshots = 8

// DatasetSnapshotFor converts the named REAL columns of the table into a
// row-major dataset of the first limit rows, or of every row when limit <= 0
// or limit >= the row count.
//
//   - features nil falls back to every REAL column in schema order — the
//     legacy (unpruned) projection.
//   - The conversion is cached per column subset until the table's next
//     mutation. A call the cached rows cover is a hit: it returns the cached
//     dataset itself when it wants exactly those rows, and Head(limit) of it
//     — a copy of limit rows, no cell conversion — when it wants fewer.
//   - A call that wants more rows than are cached converts only those rows
//     (a small @limit on a large table never pays the full-table conversion)
//     and publishes the result in the entry's place.
//
// hit reports whether the cell-by-cell conversion was skipped. The returned
// dataset carries no labels — it feeds scoring, which never reads them. It
// may be the cached dataset, shared with every other caller at this version,
// whether the call was bounded or not: treat it as read-only.
func (t *Table) DatasetSnapshotFor(features []string, limit int) (d *dataset.Dataset, hit bool, err error) {
	names, cols, err := t.resolveFeatureCols(features)
	if err != nil {
		return nil, false, err
	}
	key := strings.Join(names, "\x00")

	v := t.Version()
	t.subSnapMu.Lock()
	cached := t.subSnaps[key]
	t.subSnapMu.Unlock()
	if cached != nil && cached.version == v {
		switch covered := cached.data.NumRecords(); {
		case limit > 0 && limit < covered:
			return cached.data.Head(limit), true, nil
		case cached.full || limit == covered:
			return cached.data, true, nil
		}
	}

	d, dv, full, err := t.convertSubset(names, cols, limit)
	if err != nil {
		return nil, false, err
	}
	t.subSnapMu.Lock()
	if cur := t.subSnaps[key]; cur == nil || dv > cur.version ||
		dv == cur.version && d.NumRecords() > cur.data.NumRecords() {
		if t.subSnaps == nil {
			t.subSnaps = make(map[string]*subSnapshot)
		}
		if cur == nil && len(t.subSnaps) >= maxSubSnapshots {
			for k, s := range t.subSnaps {
				if s.version != dv {
					delete(t.subSnaps, k)
				}
			}
			// The rest are all current: map order picks which go.
			for k := range t.subSnaps {
				if len(t.subSnaps) < maxSubSnapshots {
					break
				}
				delete(t.subSnaps, k)
			}
		}
		t.subSnaps[key] = &subSnapshot{version: dv, data: d, full: full}
	}
	t.subSnapMu.Unlock()
	return d, false, nil
}

// DatasetFor is DatasetSnapshotFor without the cache: every call redoes the
// (pruned, row-bounded) conversion. It serves the baseline pipeline — which
// deliberately repeats pre-processing per query — while still honoring
// projection pruning and the @limit row bound.
func (t *Table) DatasetFor(features []string, limit int) (*dataset.Dataset, error) {
	names, cols, err := t.resolveFeatureCols(features)
	if err != nil {
		return nil, err
	}
	d, _, _, err := t.convertSubset(names, cols, limit)
	return d, err
}

// resolveFeatureCols maps the requested feature names to REAL column
// indices, or every REAL column when features is nil.
func (t *Table) resolveFeatureCols(features []string) ([]string, []int, error) {
	if features == nil {
		var names []string
		var cols []int
		for i, c := range t.Columns {
			if c.Type == Float32Col {
				names = append(names, c.Name)
				cols = append(cols, i)
			}
		}
		if len(cols) == 0 {
			return nil, nil, fmt.Errorf("db: table %q has no REAL feature columns", t.Name)
		}
		return names, cols, nil
	}
	if len(features) == 0 {
		return nil, nil, fmt.Errorf("db: table %q: empty feature projection", t.Name)
	}
	names := make([]string, len(features))
	cols := make([]int, len(features))
	for i, f := range features {
		ci := t.ColumnIndex(f)
		if ci < 0 {
			return nil, nil, fmt.Errorf("db: table %q has no column %q", t.Name, f)
		}
		if t.Columns[ci].Type != Float32Col {
			return nil, nil, fmt.Errorf("db: table %q column %q is %s, features must be REAL",
				t.Name, f, t.Columns[ci].Type)
		}
		names[i] = f
		cols[i] = ci
	}
	return names, cols, nil
}

// convertSubset gathers the given columns (limited to the first limit rows
// when limit > 0) into a row-major dataset under the table's read lock,
// returning the exact version observed and whether the dataset covers every
// row the table held at it.
func (t *Table) convertSubset(names []string, cols []int, limit int) (*dataset.Dataset, uint64, bool, error) {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	v := t.version.Load()
	n := t.numRowsLocked()
	full := limit <= 0 || limit >= n
	if !full {
		n = limit
	}
	f := len(cols)
	d := &dataset.Dataset{
		Name:         t.Name,
		FeatureNames: append([]string(nil), names...),
		X:            make([]float32, n*f),
	}
	// Column-wise gather: each source column streams once, scattering into
	// its stride of the row-major output.
	for j, ci := range cols {
		src := t.cols[ci]
		for r := 0; r < n; r++ {
			d.X[r*f+j] = src[r].F
		}
	}
	if err := d.Validate(); err != nil {
		return nil, 0, false, err
	}
	return d, v, full, nil
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
	n := t.numRowsLocked()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]float64, n)
	src := t.cols[ci]
	if typ == Float32Col {
		for r := 0; r < n; r++ {
			out[r] = float64(src[r].F)
		}
	} else {
		for r := 0; r < n; r++ {
			out[r] = float64(src[r].I)
		}
	}
	return out, nil
}
