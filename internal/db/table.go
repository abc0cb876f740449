// Package db implements the mini-DBMS substrate that stands in for
// Microsoft SQL Server in the reproduction (DESIGN.md §2): in-memory tables
// with a typed schema, a catalog, a model store holding serialized RFX blobs
// (the paper stores models "in serialized binary form" in database tables,
// §II), and a T-SQL-subset lexer/parser/executor covering the query shapes
// the paper's pipeline needs — SELECT projections/filters and EXEC
// stored-procedure invocations like Fig. 3's model-scoring call.
//
// Storage. A cell is stored once, typed, in the form its reader wants. Every
// REAL column of a table lives in ONE row-major []float32 block of width W =
// the table's REAL columns in schema order — cell (r, c) is
// block[r*W + pos(c)] — which is exactly the matrix the scoring kernel
// traverses, so a scoring query reads a view of the block, not a conversion
// of it (snapshot.go). BIGINT, NVARCHAR and VARBINARY columns are []int64,
// []string and [][]byte vectors. Value is the cell type of the API boundary
// (Insert, AppendRows, Cell, Rows, the WAL, the parser); it is built there
// and never stored.
package db

import (
	"fmt"
	"slices"
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

// Table is an in-memory table. It is safe for concurrent use: row access is
// guarded by a reader/writer lock so parallel scoring queries and SELECTs
// proceed concurrently while INSERT/DELETE/UPDATE serialize.
//
// Locking discipline for package-internal code: exported accessors (Cell,
// NumRows, Rows, ...) take rowsMu themselves; code that already holds rowsMu
// must use the unexported unlocked variants (cellLocked, numRowsLocked) —
// never the exported ones, since a nested RLock can deadlock against a
// queued writer. The schema (Name, Columns) is immutable after NewTable and
// needs no lock.
//
// The never-rewritten invariant: an element of an installed vector (block, or
// a column's ints/texts/blobs) is written once, when a row is appended, and
// never again. DatasetSnapshotFor hands out slices of the block that outlive
// the lock, and this is what makes them snapshots. Appends uphold it by
// construction — an in-place append writes only beyond every outstanding
// slice's length, a growing one leaves the old array to its readers — and
// the two mutations that are not appends, assignLocked (UPDATE) and
// dropRowsLocked (DELETE, DeleteModel), write into fresh vectors and install
// those: a copy per statement, on no measured path.
type Table struct {
	Name    string
	Columns []Column
	// rowsMu guards rows, block and cols. version is written only while
	// rowsMu is held for writing, so readers holding the read lock see an
	// exact version.
	rowsMu sync.RWMutex
	rows   int
	// block holds the REAL columns, row-major: rows × len(realNames) cells.
	block []float32
	// realNames names the REAL columns in schema order (immutable).
	realNames []string
	// cols[i] locates column i's cells.
	cols []column
	// version counts mutations.
	version atomic.Uint64
}

// column is one schema column's storage. A REAL column has no vector of its
// own: its cells are at offset pos of each block row. Any other column uses
// the one vector of its type.
type column struct {
	pos   int
	ints  []int64
	texts []string
	blobs [][]byte
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, columns []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("db: table needs a name")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("db: table %q needs at least one column", name)
	}
	t := &Table{
		Name:    name,
		Columns: append([]Column(nil), columns...),
		cols:    make([]column, len(columns)),
	}
	seen := map[string]bool{}
	for i, c := range columns {
		if c.Name == "" {
			return nil, fmt.Errorf("db: table %q has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("db: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
		if c.Type == Float32Col {
			t.cols[i].pos = len(t.realNames)
			t.realNames = append(t.realNames, c.Name)
		}
	}
	t.realNames = slices.Clip(t.realNames)
	return t, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.rows
}

// numRowsLocked is NumRows for callers already holding rowsMu.
func (t *Table) numRowsLocked() int { return t.rows }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Version returns the table's mutation counter: every statement that changes
// the table — an Insert, a bulk append of any size, a DELETE or an UPDATE —
// steps it once, live and on WAL replay alike.
func (t *Table) Version() uint64 { return t.version.Load() }

// bumpVersion records a mutation; callers hold rowsMu for writing.
func (t *Table) bumpVersion() { t.version.Add(1) }

// Insert appends one row. The row length must match the schema.
func (t *Table) Insert(row []Value) error {
	return t.AppendRows([][]Value{row})
}

// AppendRows bulk-appends rows (INSERT, WAL replay, bulk loads). All rows
// are validated against the schema before any is applied, so a bad batch
// changes nothing, and the whole batch is one mutation: one lock hold, one
// version step.
func (t *Table) AppendRows(rows [][]Value) error {
	for i, row := range rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("db: table %q: row %d has %d values, schema has %d columns",
				t.Name, i, len(row), len(t.Columns))
		}
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	t.appendLocked(rows)
	return nil
}

// appendLocked appends schema-width rows as one mutation; callers hold rowsMu
// for writing. The block is row-major over the REAL columns in schema order,
// so walking a row in schema order lays its REAL cells down in place.
func (t *Table) appendLocked(rows [][]Value) {
	if len(rows) == 0 {
		return
	}
	t.block = slices.Grow(t.block, len(rows)*len(t.realNames))
	for _, row := range rows {
		for ci := range t.cols {
			c := &t.cols[ci]
			switch t.Columns[ci].Type {
			case Float32Col:
				t.block = append(t.block, row[ci].F)
			case Int64Col:
				c.ints = append(c.ints, row[ci].I)
			case TextCol:
				c.texts = append(c.texts, row[ci].S)
			default:
				c.blobs = append(c.blobs, row[ci].B)
			}
		}
	}
	t.rows += len(rows)
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
	ints := slices.Grow(t.cols[0].ints, len(vals))
	for _, v := range vals {
		ints = append(ints, int64(v))
	}
	t.cols[0].ints = ints
	t.rows += len(vals)
	t.bumpVersion()
	return nil
}

// assignLocked sets column ci to set[ci] in every one of rows — an UPDATE —
// and steps the version; callers hold rowsMu for writing. Each vector it
// touches is cloned first and the clone installed (the never-rewritten
// invariant, see Table).
func (t *Table) assignLocked(rows []int, set map[int]Value) {
	w, blockCloned := len(t.realNames), false
	for ci, v := range set {
		c := &t.cols[ci]
		switch t.Columns[ci].Type {
		case Float32Col:
			if !blockCloned {
				t.block, blockCloned = slices.Clone(t.block), true
			}
			for _, r := range rows {
				t.block[r*w+c.pos] = v.F
			}
		case Int64Col:
			c.ints = slices.Clone(c.ints)
			for _, r := range rows {
				c.ints[r] = v.I
			}
		case TextCol:
			c.texts = slices.Clone(c.texts)
			for _, r := range rows {
				c.texts[r] = v.S
			}
		}
	}
	t.bumpVersion()
}

// dropRowsLocked removes the given rows (ascending, distinct) — a DELETE —
// and steps the version; callers hold rowsMu for writing. Every vector is
// rebuilt without them and the rebuilt one installed (the never-rewritten
// invariant, see Table), which also lets go of whatever the dropped cells
// referenced.
func (t *Table) dropRowsLocked(drop []int) {
	t.block = without(t.block, drop, len(t.realNames))
	for ci := range t.cols {
		c := &t.cols[ci]
		switch t.Columns[ci].Type {
		case Int64Col:
			c.ints = without(c.ints, drop, 1)
		case TextCol:
			c.texts = without(c.texts, drop, 1)
		case BlobCol:
			c.blobs = without(c.blobs, drop, 1)
		}
	}
	t.rows -= len(drop)
	t.bumpVersion()
}

// without returns a fresh vector holding v minus the rows in drop (ascending,
// distinct), a row being width consecutive elements.
func without[T any](v []T, drop []int, width int) []T {
	out := make([]T, 0, len(v)-len(drop)*width)
	from := 0
	for _, r := range drop {
		out = append(out, v[from*width:r*width]...)
		from = r + 1
	}
	return append(out, v[from*width:]...)
}

// Cell returns the value at (row, col).
func (t *Table) Cell(row, col int) Value {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.cellLocked(row, col)
}

// cellLocked is Cell for callers already holding rowsMu.
func (t *Table) cellLocked(row, col int) Value {
	c := &t.cols[col]
	switch t.Columns[col].Type {
	case Float32Col:
		return Value{F: t.block[row*len(t.realNames)+c.pos]}
	case Int64Col:
		return Value{I: c.ints[row]}
	case TextCol:
		return Value{S: c.texts[row]}
	default:
		return Value{B: c.blobs[row]}
	}
}

// Rows materializes all rows (copies).
func (t *Table) Rows() [][]Value {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	return t.rowsLocked()
}

// rowsLocked is Rows for callers already holding rowsMu.
func (t *Table) rowsLocked() [][]Value {
	nc := len(t.Columns)
	out := make([][]Value, t.rows)
	cells := make([]Value, t.rows*nc)
	for r := range out {
		out[r] = cells[r*nc : (r+1)*nc : (r+1)*nc]
		for c := range out[r] {
			out[r][c] = t.cellLocked(r, c)
		}
	}
	return out
}

// SizeBytes approximates the table payload size, used by the pipeline's
// transfer model.
func (t *Table) SizeBytes() int64 {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	total := int64(len(t.block)) * 4
	for ci := range t.cols {
		c := &t.cols[ci]
		total += int64(len(c.ints)) * 8
		for _, s := range c.texts {
			total += int64(len(s))
		}
		for _, b := range c.blobs {
			total += int64(len(b))
		}
	}
	return total
}

// TableFromDataset converts a dataset into a table: one REAL column per
// feature, plus a BIGINT "label" column when labels are present. The feature
// matrix is already in block layout, so it is copied in bulk.
func TableFromDataset(name string, d *dataset.Dataset) (*Table, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := make([]Column, 0, d.NumFeatures()+1)
	for _, f := range d.FeatureNames {
		cols = append(cols, Column{Name: f, Type: Float32Col})
	}
	if len(d.Y) > 0 {
		cols = append(cols, Column{Name: "label", Type: Int64Col})
	}
	t, err := NewTable(name, cols)
	if err != nil {
		return nil, err
	}
	if d.NumRecords() == 0 {
		return t, nil
	}
	// One mutation, as the CREATE TABLE record it is journaled as replays.
	t.rows, t.block = d.NumRecords(), slices.Clone(d.X)
	if len(d.Y) > 0 {
		labels := make([]int64, len(d.Y))
		for i, y := range d.Y {
			labels[i] = int64(y)
		}
		t.cols[len(cols)-1].ints = labels
	}
	t.bumpVersion()
	return t, nil
}

// DatasetFromTable converts a table's REAL columns back into a dataset the
// caller owns; a BIGINT column named "label" becomes the labels. Scoring
// does not come through here — it reads a view (DatasetSnapshotFor).
func DatasetFromTable(t *Table) (*dataset.Dataset, error) {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	if len(t.realNames) == 0 {
		return nil, fmt.Errorf("db: table %q has no REAL feature columns", t.Name)
	}
	d := &dataset.Dataset{Name: t.Name, FeatureNames: slices.Clone(t.realNames), X: slices.Clone(t.block)}
	if ci := t.ColumnIndex("label"); ci >= 0 && t.Columns[ci].Type == Int64Col {
		maxLabel := -1
		d.Y = make([]int, t.rows)
		for r, y := range t.cols[ci].ints {
			d.Y[r] = int(y)
			maxLabel = max(maxLabel, int(y))
		}
		for c := 0; c <= maxLabel; c++ {
			d.ClassNames = append(d.ClassNames, fmt.Sprintf("class_%d", c))
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
