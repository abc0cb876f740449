// Package db implements the mini-DBMS substrate that stands in for
// Microsoft SQL Server in the reproduction (DESIGN.md §2): in-memory tables
// with a typed columnar schema, a catalog, a model store holding serialized
// RFX blobs (the paper stores models "in serialized binary form" in database
// tables, §II), and a T-SQL-subset lexer/parser/executor covering the query
// shapes the paper's pipeline needs — SELECT projections/filters and
// EXEC stored-procedure invocations like Fig. 3's model-scoring call.
package db

import (
	"fmt"
	"sync"
	"sync/atomic"

	"accelscore/internal/dataset"
)

// ColumnType enumerates the supported column types.
type ColumnType int

const (
	// Float32Col holds feature values.
	Float32Col ColumnType = iota
	// Int64Col holds integral values (labels, ids).
	Int64Col
	// TextCol holds strings.
	TextCol
	// BlobCol holds binary payloads (serialized models).
	BlobCol
)

// String returns the SQL-ish type name.
func (c ColumnType) String() string {
	switch c {
	case Float32Col:
		return "REAL"
	case Int64Col:
		return "BIGINT"
	case TextCol:
		return "NVARCHAR"
	case BlobCol:
		return "VARBINARY"
	default:
		return fmt.Sprintf("TYPE(%d)", int(c))
	}
}

// Column is one column of a table schema.
type Column struct {
	Name string
	Type ColumnType
}

// Value is one cell. Exactly one field is meaningful, selected by the
// column type.
type Value struct {
	F float32
	I int64
	S string
	B []byte
}

// Float returns a float cell.
func Float(f float32) Value { return Value{F: f} }

// Int returns an integer cell.
func Int(i int64) Value { return Value{I: i} }

// Text returns a string cell.
func Text(s string) Value { return Value{S: s} }

// Blob returns a binary cell.
func Blob(b []byte) Value { return Value{B: b} }

// Table is an in-memory columnar table. It is safe for concurrent use:
// row access is guarded by a reader/writer lock so parallel scoring queries
// and SELECTs proceed concurrently while INSERT/DELETE/UPDATE serialize.
//
// Locking discipline for package-internal code: exported accessors (Cell,
// NumRows, Rows, ...) take rowsMu themselves; code that already holds rowsMu
// must use the unexported unlocked variants (cellLocked, numRowsLocked) —
// never the exported ones, since a nested RLock can deadlock against a
// queued writer. The schema (Name, Columns) is immutable after NewTable and
// needs no lock.
type Table struct {
	Name    string
	Columns []Column
	// rowsMu guards cols. version is written only while rowsMu is held for
	// writing, so readers holding the read lock see an exact version.
	rowsMu sync.RWMutex
	// cols[i] holds column i's cells; all columns have equal length.
	cols [][]Value
	// version counts mutations; the dataset snapshot cache keys on it.
	version atomic.Uint64
	// Dataset snapshot cache (DatasetSnapshot): the last conversion of this
	// table to a dataset, valid while version is unchanged. snapMu guards
	// only the published pointer — conversion itself runs outside it (see
	// DatasetSnapshotCached) so a slow conversion never blocks readers that
	// hit the cache.
	snapMu      sync.Mutex
	snap        *dataset.Dataset
	snapVersion uint64
	// Column-subset snapshot cache (DatasetSnapshotFor): converted feature
	// subsets keyed on the projected column list, each valid for the exact
	// version it observed. This is what lets a 50-column table scored by a
	// 4-feature model convert (and cache) 4 columns, not 50.
	subSnapMu sync.Mutex
	subSnaps  map[string]*subSnapshot
}

// subSnapshot is one cached column-subset conversion: data holds the first
// data.NumRecords() rows of the table as of version, every row when full.
type subSnapshot struct {
	version uint64
	data    *dataset.Dataset
	full    bool
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, columns []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("db: table needs a name")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("db: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range columns {
		if c.Name == "" {
			return nil, fmt.Errorf("db: table %q has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("db: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{
		Name:    name,
		Columns: append([]Column(nil), columns...),
		cols:    make([][]Value, len(columns)),
	}, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.numRowsLocked()
}

// numRowsLocked is NumRows for callers already holding rowsMu.
func (t *Table) numRowsLocked() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Version returns the table's mutation counter. Every Insert, bulk append,
// DELETE or UPDATE bumps it; caches keyed on it (DatasetSnapshot, and the
// pipeline's hot path) invalidate automatically.
func (t *Table) Version() uint64 { return t.version.Load() }

// bumpVersion records a mutation; callers hold rowsMu for writing.
func (t *Table) bumpVersion() { t.version.Add(1) }

// Insert appends one row. The row length must match the schema.
func (t *Table) Insert(row []Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("db: table %q: row has %d values, schema has %d columns",
			t.Name, len(row), len(t.Columns))
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	t.insertLocked(row)
	return nil
}

// insertLocked appends a schema-length row; callers hold rowsMu for writing
// and have validated the length.
func (t *Table) insertLocked(row []Value) {
	for i, v := range row {
		t.cols[i] = append(t.cols[i], v)
	}
	t.bumpVersion()
}

// AppendIntRows bulk-appends one row per value to a table whose schema is a
// single BIGINT column — the result-assembly fast path: the pipeline's
// post-processing stage lands a whole prediction column in one allocation
// instead of N Insert calls.
func (t *Table) AppendIntRows(vals []int) error {
	if len(t.Columns) != 1 || t.Columns[0].Type != Int64Col {
		return fmt.Errorf("db: table %q: AppendIntRows requires a single BIGINT column schema", t.Name)
	}
	if len(vals) == 0 {
		return nil
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	base := len(t.cols[0])
	t.cols[0] = append(t.cols[0], make([]Value, len(vals))...)
	dst := t.cols[0][base:]
	// The appended cells are zeroed: setting the one field skips copying
	// (and write-barriering) the whole pointer-carrying Value per row.
	for i, v := range vals {
		dst[i].I = int64(v)
	}
	t.bumpVersion()
	return nil
}

// AppendRows bulk-appends rows (used by WAL replay and bulk loads). All rows
// are validated against the schema before any is applied, so a bad batch
// changes nothing, and the whole batch costs a single version bump.
func (t *Table) AppendRows(rows [][]Value) error {
	for i, row := range rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("db: table %q: row %d has %d values, schema has %d columns",
				t.Name, i, len(row), len(t.Columns))
		}
	}
	if len(rows) == 0 {
		return nil
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	for ci := range t.cols {
		base := len(t.cols[ci])
		t.cols[ci] = append(t.cols[ci], make([]Value, len(rows))...)
		dst := t.cols[ci][base:]
		for ri, row := range rows {
			dst[ri] = row[ci]
		}
	}
	t.bumpVersion()
	return nil
}

// Cell returns the value at (row, col).
func (t *Table) Cell(row, col int) Value {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.cols[col][row]
}

// cellLocked is Cell for callers already holding rowsMu.
func (t *Table) cellLocked(row, col int) Value {
	return t.cols[col][row]
}

// Rows materializes all rows (copies).
func (t *Table) Rows() [][]Value {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.rowsLocked()
}

// rowsLocked is Rows for callers already holding rowsMu.
func (t *Table) rowsLocked() [][]Value {
	out := make([][]Value, t.numRowsLocked())
	for r := range out {
		row := make([]Value, len(t.Columns))
		for c := range t.Columns {
			row[c] = t.cols[c][r]
		}
		out[r] = row
	}
	return out
}

// SizeBytes approximates the table payload size, used by the pipeline's
// transfer model.
func (t *Table) SizeBytes() int64 {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	var total int64
	for ci, col := range t.Columns {
		switch col.Type {
		case Float32Col:
			total += int64(len(t.cols[ci])) * 4
		case Int64Col:
			total += int64(len(t.cols[ci])) * 8
		case TextCol:
			for _, v := range t.cols[ci] {
				total += int64(len(v.S))
			}
		case BlobCol:
			for _, v := range t.cols[ci] {
				total += int64(len(v.B))
			}
		}
	}
	return total
}

// TableFromDataset converts a dataset into a table: one REAL column per
// feature, plus a BIGINT "label" column when labels are present.
func TableFromDataset(name string, d *dataset.Dataset) (*Table, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := make([]Column, 0, d.NumFeatures()+1)
	for _, f := range d.FeatureNames {
		cols = append(cols, Column{Name: f, Type: Float32Col})
	}
	hasLabels := len(d.Y) > 0
	if hasLabels {
		cols = append(cols, Column{Name: "label", Type: Int64Col})
	}
	t, err := NewTable(name, cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.NumRecords(); i++ {
		row := make([]Value, 0, len(cols))
		for _, f := range d.Row(i) {
			row = append(row, Float(f))
		}
		if hasLabels {
			row = append(row, Int(int64(d.Y[i])))
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DatasetSnapshot returns the table converted to a dataset, cached until
// the table's next mutation: repeated scoring queries over an unchanged
// table skip the O(rows x cols) cell-by-cell conversion entirely (the
// paper's data pre-processing overhead, §IV-E). The returned dataset is
// shared — callers must treat it as read-only. Safe for concurrent use.
func (t *Table) DatasetSnapshot() (*dataset.Dataset, error) {
	d, _, err := t.DatasetSnapshotCached()
	return d, err
}

// DatasetSnapshotCached is DatasetSnapshot plus a hit report: hit is true
// when the cached conversion was served unchanged, false when the table had
// to be re-converted.
//
// The conversion runs outside snapMu (double-checked publish): holding the
// lock across the whole table→dataset conversion would serialize every
// concurrent reader of the table behind one converter. Instead the cached
// pointer is checked under the lock, the conversion runs under only the
// table's read lock (so concurrent cache hits and other readers proceed),
// and the result is re-published under snapMu keyed by the exact version the
// conversion observed — a stale converter can never overwrite a newer
// snapshot because publication requires its version to be >= the resident
// one.
func (t *Table) DatasetSnapshotCached() (*dataset.Dataset, bool, error) {
	v := t.Version()
	t.snapMu.Lock()
	if t.snap != nil && t.snapVersion == v {
		d := t.snap
		t.snapMu.Unlock()
		return d, true, nil
	}
	t.snapMu.Unlock()

	d, dv, err := t.convertDataset()
	if err != nil {
		return nil, false, err
	}

	t.snapMu.Lock()
	if t.snap == nil || dv >= t.snapVersion {
		t.snap, t.snapVersion = d, dv
	}
	t.snapMu.Unlock()
	return d, false, nil
}

// convertDataset converts the table under its read lock, returning the
// exact version the conversion observed (version writes happen only under
// the write lock, so the pair is consistent).
func (t *Table) convertDataset() (*dataset.Dataset, uint64, error) {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	v := t.version.Load()
	d, err := t.datasetLocked()
	return d, v, err
}

// DatasetFromTable converts a table's REAL columns back into a dataset; a
// BIGINT column named "label" becomes the labels.
func DatasetFromTable(t *Table) (*dataset.Dataset, error) {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.datasetLocked()
}

// datasetLocked is the conversion body; callers hold rowsMu.
func (t *Table) datasetLocked() (*dataset.Dataset, error) {
	d := &dataset.Dataset{Name: t.Name}
	var featureCols []int
	labelCol := -1
	for i, c := range t.Columns {
		switch {
		case c.Type == Float32Col:
			featureCols = append(featureCols, i)
			d.FeatureNames = append(d.FeatureNames, c.Name)
		case c.Type == Int64Col && c.Name == "label":
			labelCol = i
		}
	}
	if len(featureCols) == 0 {
		return nil, fmt.Errorf("db: table %q has no REAL feature columns", t.Name)
	}
	n := t.numRowsLocked()
	d.X = make([]float32, 0, n*len(featureCols))
	maxLabel := -1
	for r := 0; r < n; r++ {
		for _, ci := range featureCols {
			d.X = append(d.X, t.cellLocked(r, ci).F)
		}
		if labelCol >= 0 {
			y := int(t.cellLocked(r, labelCol).I)
			d.Y = append(d.Y, y)
			if y > maxLabel {
				maxLabel = y
			}
		}
	}
	for c := 0; c <= maxLabel; c++ {
		d.ClassNames = append(d.ClassNames, fmt.Sprintf("class_%d", c))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
