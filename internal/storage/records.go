// Package storage is the durability engine under internal/db: an
// append-only WAL of CRC-framed logical records plus periodic compacted
// snapshots in the binary column-page format. It implements db.Journal, so
// the db package stays storage-agnostic while every acknowledged mutation
// reaches disk before the caller sees success.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"accelscore/internal/db"
	"accelscore/internal/storage/pagefmt"
)

// WAL op kinds. The numbering is part of the on-disk format.
const (
	opCreateTable byte = 1
	opInsert      byte = 2
	opUpdate      byte = 3
	opDelete      byte = 4
	opModelStore  byte = 5
	opModelDelete byte = 6
)

// ErrRecord reports a WAL record whose frame verified but whose body does
// not decode — corruption the CRC happened to miss structurally, or a
// format from a future version.
var ErrRecord = errors.New("storage: malformed WAL record")

// record is one decoded WAL entry. kind selects which fields are set.
type record struct {
	lsn  uint64
	kind byte

	table string       // createTable, insert
	cols  []db.Column  // createTable
	rows  [][]db.Value // createTable, insert

	update *db.UpdateStmt
	del    *db.DeleteStmt

	model string // modelStore, modelDelete
	blob  []byte // modelStore
}

// Record payloads are `u64 LSN | u8 op | body`, wrapped in a pagefmt frame
// by the WAL writer. Cells are self-describing (a kind byte per cell), so a
// record validates completely without catalog context — which is what lets
// the boot-time scan find the torn tail before any replay happens.

func appendRecordHeader(dst []byte, lsn uint64, op byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	return append(dst, op)
}

// A cell is spelled as its kind byte (the column type), then the cell as a
// column page stores it. INSERT's Value rows are written through these four,
// CREATE TABLE's typed vectors through the last three and appendFloatRun.
func appendFloatCell(dst []byte, f float32) []byte {
	return pagefmt.AppendFloat32(append(dst, byte(db.Float32Col)), f)
}
func appendIntCell(dst []byte, i int64) []byte {
	return pagefmt.AppendInt64(append(dst, byte(db.Int64Col)), i)
}
func appendTextCell(dst []byte, s string) []byte {
	return pagefmt.AppendString(append(dst, byte(db.TextCol)), s)
}
func appendBlobCell(dst, b []byte) []byte {
	return pagefmt.AppendBytes(append(dst, byte(db.BlobCol)), b)
}

func appendRows(dst []byte, cols []db.Column, rows [][]db.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, row := range rows {
		for ci, v := range row {
			switch cols[ci].Type {
			case db.Float32Col:
				dst = appendFloatCell(dst, v.F)
			case db.Int64Col:
				dst = appendIntCell(dst, v.I)
			case db.TextCol:
				dst = appendTextCell(dst, v.S)
			default:
				dst = appendBlobCell(dst, v.B)
			}
		}
	}
	return dst
}

// appendTableRows is appendRows read straight from a table's typed vectors:
// a row's REAL cells are the next ones of the row-major block, and each run
// of adjacent REAL columns is written in one loop.
func appendTableRows(dst []byte, v db.TableView) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Rows))
	dst = binary.AppendUvarint(dst, uint64(len(v.Columns)))
	// run[ci] is how many REAL columns start at ci.
	run := make([]int, len(v.Columns)+1)
	for ci := len(v.Columns) - 1; ci >= 0; ci-- {
		if v.Columns[ci].Type == db.Float32Col {
			run[ci] = run[ci+1] + 1
		}
	}
	block := v.Block
	for r := range v.Rows {
		for ci := 0; ci < len(v.Columns); ci++ {
			if n := run[ci]; n > 0 {
				dst, block = appendFloatRun(dst, block[:n]), block[n:]
				ci += n - 1
				continue
			}
			switch c := &v.Cells[ci]; v.Columns[ci].Type {
			case db.Int64Col:
				dst = appendIntCell(dst, c.Ints[r])
			case db.TextCol:
				dst = appendTextCell(dst, c.Texts[r])
			default:
				dst = appendBlobCell(dst, c.Blobs[r])
			}
		}
	}
	return dst
}

// appendFloatRun appends one REAL cell per value of fs.
func appendFloatRun(dst []byte, fs []float32) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 5*len(fs))[:off+5*len(fs)]
	for i, f := range fs {
		cell := dst[off+5*i : off+5*i+5]
		cell[0] = byte(db.Float32Col)
		binary.LittleEndian.PutUint32(cell[1:], math.Float32bits(f))
	}
	return dst
}

func appendLiteral(dst []byte, lit db.Literal) []byte {
	if lit.IsString {
		dst = append(dst, 1)
		return pagefmt.AppendString(dst, lit.S)
	}
	dst = append(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(lit.N))
}

func appendConditions(dst []byte, conds []db.Condition) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(conds)))
	for _, c := range conds {
		dst = pagefmt.AppendString(dst, c.Column)
		dst = pagefmt.AppendString(dst, c.Op)
		dst = appendLiteral(dst, c.Value)
	}
	return dst
}

// The append* record encoders append a record's payload to dst: the store's
// record buffer, whose first pagefmt.FrameOverhead bytes the WAL frames it in.
func appendCreateTable(dst []byte, lsn uint64, v db.TableView) []byte {
	dst = appendRecordHeader(dst, lsn, opCreateTable)
	dst = pagefmt.AppendString(dst, v.Name)
	dst = binary.AppendUvarint(dst, uint64(len(v.Columns)))
	for _, c := range v.Columns {
		dst = pagefmt.AppendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	// One allocation: a REAL cell takes 5 bytes, a BIGINT one 9, and a TEXT
	// or BLOB one is guessed at 9.
	cells := 2*binary.MaxVarintLen64 + 5*len(v.Block) + 9*(v.Rows*len(v.Columns)-len(v.Block))
	if cap(dst)-len(dst) < cells {
		dst = append(make([]byte, 0, len(dst)+cells), dst...)
	}
	return appendTableRows(dst, v)
}

func appendInsert(dst []byte, lsn uint64, table string, cols []db.Column, rows [][]db.Value) []byte {
	dst = appendRecordHeader(dst, lsn, opInsert)
	dst = pagefmt.AppendString(dst, table)
	return appendRows(dst, cols, rows)
}

func appendUpdate(dst []byte, lsn uint64, st *db.UpdateStmt) []byte {
	dst = appendRecordHeader(dst, lsn, opUpdate)
	dst = pagefmt.AppendString(dst, st.Table)
	// Map iteration order is random; the record must be deterministic.
	keys := make([]string, 0, len(st.Set))
	for k := range st.Set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = pagefmt.AppendString(dst, k)
		dst = appendLiteral(dst, st.Set[k])
	}
	return appendConditions(dst, st.Where)
}

func appendDelete(dst []byte, lsn uint64, st *db.DeleteStmt) []byte {
	dst = appendRecordHeader(dst, lsn, opDelete)
	dst = pagefmt.AppendString(dst, st.Table)
	return appendConditions(dst, st.Where)
}

func appendModelStore(dst []byte, lsn uint64, name string, blob []byte) []byte {
	dst = appendRecordHeader(dst, lsn, opModelStore)
	dst = pagefmt.AppendString(dst, name)
	return pagefmt.AppendBytes(dst, blob)
}

func appendModelDelete(dst []byte, lsn uint64, name string) []byte {
	dst = appendRecordHeader(dst, lsn, opModelDelete)
	return pagefmt.AppendString(dst, name)
}

func readValue(c *pagefmt.CellReader) (db.Value, error) {
	kind, err := c.Byte()
	if err != nil {
		return db.Value{}, err
	}
	var v db.Value
	switch db.ColumnType(kind) {
	case db.Float32Col:
		v.F, err = c.Float32()
	case db.Int64Col:
		v.I, err = c.Int64()
	case db.TextCol:
		v.S, err = c.String()
	case db.BlobCol:
		var b []byte
		b, err = c.Bytes()
		v.B = append([]byte(nil), b...)
	default:
		err = fmt.Errorf("unknown cell kind %d", kind)
	}
	return v, err
}

func readRows(c *pagefmt.CellReader) ([][]db.Value, error) {
	nrows, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	ncols, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if nrows == 0 {
		return nil, nil
	}
	// Every cell costs at least one kind byte, so the bounds below reject
	// fabricated counts before any large allocation happens. nrows is capped
	// first so the product cannot overflow.
	left := uint64(c.Remaining())
	if ncols == 0 || ncols > 1<<16 || nrows > left || nrows*ncols > left {
		return nil, fmt.Errorf("implausible row block %dx%d in %d bytes", nrows, ncols, left)
	}
	rows := make([][]db.Value, nrows)
	for ri := range rows {
		row := make([]db.Value, ncols)
		for ci := range row {
			if row[ci], err = readValue(c); err != nil {
				return nil, err
			}
		}
		rows[ri] = row
	}
	return rows, nil
}

func readLiteral(c *pagefmt.CellReader) (db.Literal, error) {
	flag, err := c.Byte()
	if err != nil {
		return db.Literal{}, err
	}
	switch flag {
	case 1:
		s, err := c.String()
		return db.Literal{IsString: true, S: s}, err
	case 0:
		n, err := c.Float64()
		return db.Literal{N: n}, err
	default:
		return db.Literal{}, fmt.Errorf("bad literal flag %d", flag)
	}
}

func readConditions(c *pagefmt.CellReader) ([]db.Condition, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Remaining()) {
		return nil, fmt.Errorf("implausible condition count %d", n)
	}
	out := make([]db.Condition, n)
	for i := range out {
		cond := &out[i]
		if cond.Column, err = c.String(); err != nil {
			return nil, err
		}
		if cond.Op, err = c.String(); err != nil {
			return nil, err
		}
		if cond.Value, err = readLiteral(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeRecord parses a framed record payload. Any structural problem
// returns an error wrapping ErrRecord; the function never panics on
// arbitrary input (FuzzWALReplay's contract).
func decodeRecord(payload []byte) (*record, error) {
	rec, err := readRecord(pagefmt.NewCellReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	return rec, nil
}

func readRecord(c *pagefmt.CellReader) (*record, error) {
	lsn, err := c.Uint64()
	if err != nil {
		return nil, err
	}
	kind, err := c.Byte()
	if err != nil {
		return nil, err
	}
	rec := &record{lsn: lsn, kind: kind}
	switch kind {
	case opCreateTable:
		if rec.table, err = c.String(); err != nil {
			return nil, err
		}
		ncols, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if ncols == 0 || ncols > 1<<16 || ncols*2 > uint64(c.Remaining()) {
			return nil, fmt.Errorf("implausible column count %d", ncols)
		}
		rec.cols = make([]db.Column, ncols)
		for i := range rec.cols {
			col := &rec.cols[i]
			if col.Name, err = c.String(); err != nil {
				return nil, err
			}
			typ, err := c.Byte()
			if err != nil {
				return nil, err
			}
			if col.Type = db.ColumnType(typ); col.Type < db.Float32Col || col.Type > db.BlobCol {
				return nil, fmt.Errorf("unknown column type %d", typ)
			}
		}
		if rec.rows, err = readRows(c); err != nil {
			return nil, err
		}
		for _, row := range rec.rows {
			if len(row) != len(rec.cols) {
				return nil, fmt.Errorf("row width %d for %d columns", len(row), len(rec.cols))
			}
		}
	case opInsert:
		if rec.table, err = c.String(); err != nil {
			return nil, err
		}
		if rec.rows, err = readRows(c); err != nil {
			return nil, err
		}
	case opUpdate:
		st := &db.UpdateStmt{Set: map[string]db.Literal{}}
		if st.Table, err = c.String(); err != nil {
			return nil, err
		}
		nset, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if nset > uint64(c.Remaining()) {
			return nil, fmt.Errorf("implausible SET count %d", nset)
		}
		for i := uint64(0); i < nset; i++ {
			col, err := c.String()
			if err != nil {
				return nil, err
			}
			if st.Set[col], err = readLiteral(c); err != nil {
				return nil, err
			}
		}
		if st.Where, err = readConditions(c); err != nil {
			return nil, err
		}
		rec.update = st
	case opDelete:
		st := &db.DeleteStmt{}
		if st.Table, err = c.String(); err != nil {
			return nil, err
		}
		if st.Where, err = readConditions(c); err != nil {
			return nil, err
		}
		rec.del = st
	case opModelStore:
		if rec.model, err = c.String(); err != nil {
			return nil, err
		}
		blob, err := c.Bytes()
		if err != nil {
			return nil, err
		}
		rec.blob = append([]byte(nil), blob...)
	case opModelDelete:
		if rec.model, err = c.String(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown op %d", kind)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", c.Remaining())
	}
	return rec, nil
}
