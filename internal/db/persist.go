package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"accelscore/internal/storage/pagefmt"
)

// Snapshot file layout (format 1):
//
//	magic "ACSNAP01" (8 bytes)
//	frame{ u16 version | uvarint tableCount }
//	per table, sorted by name:
//	  frame{ name | uvarint ncols | (colName, u8 colType)* | uvarint rows | u64 tableVersion }
//	  per column, in schema order: checksummed pages until rows are covered
//	frame{ "ACSNEND" }
//
// A REAL column's pages are filled from the row-major block, one loop over
// the column's stride a page, so Save never materializes a copy of the data;
// Load decodes them into a column-major scratch and transposes each table's
// into its block once. Every frame and page carries a CRC, so truncation or
// bit rot anywhere in the file surfaces as a typed error on load, never as a
// silently wrong table. Pages of one column are contiguous and
// self-describing (column index, row range), which is what lets a reader
// recover only a feature subset's pages.
var snapshotMagic = [8]byte{'A', 'C', 'S', 'N', 'A', 'P', '0', '1'}

const (
	snapshotVersion  = 1
	snapshotEnd      = "ACSNEND"
	maxHeaderFrame   = 1 << 24 // 16 MiB bounds schema/table headers
	maxSnapshotCols  = 1 << 16
	maxSnapshotBytes = 1 << 40 // sanity cap on declared row counts (bytes)
	maxRealPresize   = 1 << 22 // REAL cells Load sizes for before pages arrive
)

// Typed persistence errors.
var (
	// ErrSnapshotFormat reports bytes that do not start with the page
	// format's magic: not a snapshot, or one written by a format this
	// build no longer reads.
	ErrSnapshotFormat = errors.New("db: unrecognized snapshot format")
	// ErrSnapshotCorrupt reports a binary snapshot that fails validation
	// (truncated, checksum mismatch, impossible structure).
	ErrSnapshotCorrupt = errors.New("db: corrupt snapshot")
)

// Save writes the whole database (tables and stored models) to w in the
// binary column-page format, page by page under each table's read lock: a
// REAL page fills in one loop over the block, and memory stays one page
// buffer, so a multi-gigabyte table saves without a deep copy.
func (d *Database) Save(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()

	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	names := d.tableNamesLocked()

	// scratch holds encoded frames and pages between writes; reused so Save
	// allocates a constant number of buffers regardless of table size.
	scratch := make([]byte, 0, 4<<10)
	hdr := binary.LittleEndian.AppendUint16(scratch[:0], snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(names)))
	scratch = pagefmt.AppendFrame(scratch[len(hdr):len(hdr)], hdr)
	if _, err := bw.Write(scratch); err != nil {
		return err
	}

	var b pagefmt.Builder
	var pageBuf []byte
	for _, name := range names {
		t := d.tables[name]
		if err := t.savePages(bw, &b, &pageBuf); err != nil {
			return fmt.Errorf("db: saving table %q: %w", name, err)
		}
	}

	end := pagefmt.AppendFrame(pageBuf[:0], []byte(snapshotEnd))
	if _, err := bw.Write(end); err != nil {
		return err
	}
	return bw.Flush()
}

// savePages streams one table (header frame + column pages) to w under the
// table's read lock, so a concurrent UPDATE cannot tear the encoded rows.
func (t *Table) savePages(w *bufio.Writer, b *pagefmt.Builder, pageBuf *[]byte) error {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()

	rows := t.numRowsLocked()
	version := t.version.Load()

	hdr := (*pageBuf)[:0]
	hdr = pagefmt.AppendString(hdr, t.Name)
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		hdr = pagefmt.AppendString(hdr, c.Name)
		hdr = append(hdr, byte(c.Type))
	}
	hdr = binary.AppendUvarint(hdr, uint64(rows))
	hdr = binary.LittleEndian.AppendUint64(hdr, version)
	framed := pagefmt.AppendFrame(hdr[len(hdr):len(hdr)], hdr)
	if _, err := w.Write(framed); err != nil {
		return err
	}
	*pageBuf = framed[:0]

	emit := func(p *pagefmt.Page) error {
		_, _ = w.Write(p.AppendHeader((*pageBuf)[:0])) // a failure sticks: the next Write returns it
		_, err := w.Write(p.Payload)
		return err
	}
	width := len(t.realNames)
	for ci, col := range t.Columns {
		b.Reset(pagefmt.ColType(col.Type), uint32(ci), version, pagefmt.DefaultPayload, emit)
		c := &t.cols[ci]
		var err error
		if col.Type == Float32Col && rows > 0 {
			err = b.AddFloat32s(t.block[c.pos:], width, rows)
		}
		for r := 0; r < rows && err == nil && col.Type != Float32Col; r++ {
			switch col.Type {
			case Int64Col:
				err = b.AddInt64(c.Ints[r])
			case TextCol:
				err = b.AddString(c.Texts[r])
			default:
				err = b.AddBytes(c.Blobs[r])
			}
		}
		if err == nil {
			err = b.Flush()
		}
		if err != nil {
			return fmt.Errorf("column %q: %w", col.Name, err)
		}
	}
	return nil
}

// tableNamesLocked returns sorted table names; callers hold the lock.
func (d *Database) tableNamesLocked() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Load reads a database previously written by Save. Bytes that do not
// start with the page format's magic — including inputs shorter than the
// magic — fail with ErrSnapshotFormat; a snapshot damaged anywhere — torn
// tail, flipped bit, impossible structure — fails with ErrSnapshotCorrupt
// rather than loading wrong data.
func Load(r io.Reader) (*Database, error) {
	var magic [8]byte
	_, err := io.ReadFull(r, magic[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, ErrSnapshotFormat
	}
	return (&loader{r: bufio.NewReaderSize(r, 64<<10)}).load()
}

// loader is one Load's reader and the buffers it reuses across tables.
type loader struct {
	r         io.Reader
	page      []byte    // the page being decoded
	realCells []float32 // the current table's REAL cells, column after column
}

// load decodes the page-format snapshot body after the magic.
func (l *loader) load() (*Database, error) {
	hdr, err := pagefmt.ReadFrame(l.r, maxHeaderFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: file header: %v", ErrSnapshotCorrupt, err)
	}
	cr := pagefmt.NewCellReader(hdr)
	version, err := cr.Uint16()
	if err != nil {
		return nil, fmt.Errorf("%w: file header: %v", ErrSnapshotCorrupt, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrSnapshotCorrupt, version)
	}
	tableCount, err := cr.Uvarint()
	if err != nil || tableCount > 1<<20 {
		return nil, fmt.Errorf("%w: bad table count", ErrSnapshotCorrupt)
	}

	d := &Database{tables: make(map[string]*Table)}
	for i := uint64(0); i < tableCount; i++ {
		t, err := l.loadTable()
		if err != nil {
			return nil, err
		}
		if _, dup := d.tables[t.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate table %q", ErrSnapshotCorrupt, t.Name)
		}
		d.tables[t.Name] = t
	}
	end, err := pagefmt.ReadFrame(l.r, maxHeaderFrame)
	if err != nil || string(end) != snapshotEnd {
		return nil, fmt.Errorf("%w: missing end marker", ErrSnapshotCorrupt)
	}

	if _, ok := d.tables[ModelsTable]; !ok {
		// Old or hand-built snapshots without a models table still get one.
		models, err := NewTable(ModelsTable, []Column{
			{Name: "name", Type: TextCol},
			{Name: "model", Type: BlobCol},
		})
		if err != nil {
			return nil, err
		}
		d.tables[ModelsTable] = models
	}
	return d, nil
}

// loadTable decodes one table header frame plus its column pages.
func (l *loader) loadTable() (*Table, error) {
	hdr, err := pagefmt.ReadFrame(l.r, maxHeaderFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: table header: %v", ErrSnapshotCorrupt, err)
	}
	cr := pagefmt.NewCellReader(hdr)
	name, err := cr.String()
	if err != nil {
		return nil, fmt.Errorf("%w: table name: %v", ErrSnapshotCorrupt, err)
	}
	ncols, err := cr.Uvarint()
	if err != nil || ncols == 0 || ncols > maxSnapshotCols {
		return nil, fmt.Errorf("%w: table %q: bad column count", ErrSnapshotCorrupt, name)
	}
	cols := make([]Column, ncols)
	for c := range cols {
		col := &cols[c]
		if col.Name, err = cr.String(); err != nil {
			return nil, fmt.Errorf("%w: table %q: bad column header", ErrSnapshotCorrupt, name)
		}
		typ, err := cr.Byte()
		if err != nil {
			return nil, fmt.Errorf("%w: table %q: bad column header", ErrSnapshotCorrupt, name)
		}
		if col.Type = ColumnType(typ); col.Type < Float32Col || col.Type > BlobCol {
			return nil, fmt.Errorf("%w: table %q column %q: unknown type %d", ErrSnapshotCorrupt, name, col.Name, typ)
		}
	}
	rows, err := cr.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: table %q: bad row count", ErrSnapshotCorrupt, name)
	}
	if rows*4 > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: table %q: implausible row count %d", ErrSnapshotCorrupt, name, rows)
	}
	version, err := cr.Uint64()
	if err != nil {
		return nil, fmt.Errorf("%w: table %q: bad table version", ErrSnapshotCorrupt, name)
	}

	t, err := NewTable(name, cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	// Sized like the other vectors, for at most 1<<20 declared rows.
	l.realCells = slices.Grow(l.realCells[:0], min(int(min(rows, 1<<20))*len(t.realNames), maxRealPresize))
	for ci, col := range cols {
		if err := l.loadColumnPages(t, ci, rows); err != nil {
			return nil, fmt.Errorf("%w: table %q column %q: %v", ErrSnapshotCorrupt, name, col.Name, err)
		}
	}
	if len(l.realCells) > 0 {
		t.block = make([]float32, len(l.realCells))
		transpose(t.block, l.realCells, int(rows))
	}
	t.rows = int(rows)
	t.version.Store(version)
	return t, nil
}

// loadColumnPages reads pages for column ci until rows cells are decoded: a
// REAL column's onto l.realCells, any other's into its vector. A header's
// row count sizes at most the first 1<<20 rows of one column; past that,
// storage grows as pages really arrive.
func (l *loader) loadColumnPages(t *Table, ci int, rows uint64) error {
	typ, c := pagefmt.ColType(t.Columns[ci].Type), &t.cols[ci]
	hint := int(min(rows, 1<<20))
	switch typ {
	case pagefmt.Float32:
	case pagefmt.Int64:
		c.Ints = make([]int64, 0, hint)
	case pagefmt.Text:
		c.Texts = make([]string, 0, hint)
	default:
		c.Blobs = make([][]byte, 0, hint)
	}
	var got uint64
	for got < rows {
		p, err := pagefmt.ReadPage(l.r, &l.page)
		if err != nil {
			return err
		}
		if p.Type != typ || p.ColIndex != uint32(ci) {
			return fmt.Errorf("page for column %d type %d, want column %d type %d",
				p.ColIndex, p.Type, ci, typ)
		}
		if p.StartRow != got {
			return fmt.Errorf("page starts at row %d, want %d", p.StartRow, got)
		}
		if got+uint64(p.Rows) > rows {
			return fmt.Errorf("pages overflow declared row count %d", rows)
		}
		if typ == pagefmt.Float32 {
			// Decode checked the payload is exactly Rows cells.
			l.realCells = p.AppendFloat32s(l.realCells)
			got += uint64(p.Rows)
			continue
		}
		cr := pagefmt.NewCellReader(p.Payload)
		for end := got + uint64(p.Rows); got < end; got++ {
			var cellErr error
			switch typ {
			case pagefmt.Int64:
				var v int64
				v, cellErr = cr.Int64()
				c.Ints = append(c.Ints, v)
			case pagefmt.Text:
				var v string
				v, cellErr = cr.String()
				c.Texts = append(c.Texts, v)
			default:
				var v []byte
				v, cellErr = cr.Bytes()
				c.Blobs = append(c.Blobs, slices.Clone(v))
			}
			if cellErr != nil {
				return cellErr
			}
		}
		if cr.Remaining() != 0 {
			return fmt.Errorf("%d trailing payload bytes", cr.Remaining())
		}
	}
	return nil
}

// transpose fills the row-major block from cols, the same cells column after
// column. It writes the block in order, gathering each row from the columns'
// runs, which advance together; writing a column at a time, each store a row
// apart, measured half as fast.
func transpose(block, cols []float32, rows int) {
	w := len(cols) / rows
	for r := range rows {
		row := block[r*w : r*w+w]
		for k := range row {
			row[k] = cols[k*rows+r]
		}
	}
}

// SaveFile writes the database to a file.
func (d *Database) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = d.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a database from a file.
func LoadFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
