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
// Pages stream straight out of the table's vectors — a REAL column by
// striding the row-major block — so Save never materializes a copy of the
// data, and Load scatters them back into the block. Every frame and page
// carries a CRC, so truncation or bit rot anywhere in the file surfaces as a
// typed error on load, never as a silently wrong table. Pages of one column
// are contiguous and self-describing (column index, row range), which is
// what lets a reader recover only a feature subset's pages.
var snapshotMagic = [8]byte{'A', 'C', 'S', 'N', 'A', 'P', '0', '1'}

const (
	snapshotVersion  = 1
	snapshotEnd      = "ACSNEND"
	maxHeaderFrame   = 1 << 24 // 16 MiB bounds schema/table headers
	maxSnapshotCols  = 1 << 16
	maxSnapshotBytes = 1 << 40 // sanity cap on declared row counts (bytes)
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

// colType maps a schema column type to its page encoding.
func colType(t ColumnType) pagefmt.ColType {
	switch t {
	case Float32Col:
		return pagefmt.Float32
	case Int64Col:
		return pagefmt.Int64
	case TextCol:
		return pagefmt.Text
	default:
		return pagefmt.Blob
	}
}

// Save writes the whole database (tables and stored models) to w in the
// binary column-page format. Data streams page by page under each table's
// read lock — memory use is bounded by one page buffer, not by the database
// size, so a multi-gigabyte table saves without a deep copy.
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
func (t *Table) savePages(w io.Writer, b *pagefmt.Builder, pageBuf *[]byte) error {
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
		*pageBuf = p.AppendTo((*pageBuf)[:0])
		_, err := w.Write(*pageBuf)
		return err
	}
	width := len(t.realNames)
	for ci, col := range t.Columns {
		b.Reset(colType(col.Type), uint32(ci), version, pagefmt.DefaultPayload, emit)
		c := &t.cols[ci]
		var err error
		for r := 0; r < rows && err == nil; r++ {
			switch col.Type {
			case Float32Col:
				err = b.AddFloat32(t.block[r*width+c.pos])
			case Int64Col:
				err = b.AddInt64(c.ints[r])
			case TextCol:
				err = b.AddString(c.texts[r])
			default:
				err = b.AddBytes(c.blobs[r])
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
	return loadBinary(bufio.NewReaderSize(r, 64<<10))
}

// loadBinary decodes the page-format snapshot body after the magic.
func loadBinary(r io.Reader) (*Database, error) {
	hdr, err := pagefmt.ReadFrame(r, maxHeaderFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: file header: %v", ErrSnapshotCorrupt, err)
	}
	if len(hdr) < 2 {
		return nil, fmt.Errorf("%w: short file header", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint16(hdr[:2]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrSnapshotCorrupt, v)
	}
	tableCount, sz := binary.Uvarint(hdr[2:])
	if sz <= 0 || tableCount > 1<<20 {
		return nil, fmt.Errorf("%w: bad table count", ErrSnapshotCorrupt)
	}

	d := &Database{tables: make(map[string]*Table)}
	for i := uint64(0); i < tableCount; i++ {
		t, err := loadTable(r)
		if err != nil {
			return nil, err
		}
		if _, dup := d.tables[t.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate table %q", ErrSnapshotCorrupt, t.Name)
		}
		d.tables[t.Name] = t
	}
	end, err := pagefmt.ReadFrame(r, maxHeaderFrame)
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
func loadTable(r io.Reader) (*Table, error) {
	hdr, err := pagefmt.ReadFrame(r, maxHeaderFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: table header: %v", ErrSnapshotCorrupt, err)
	}
	cr := pagefmt.NewCellReader(hdr)
	name, err := cr.String()
	if err != nil {
		return nil, fmt.Errorf("%w: table name: %v", ErrSnapshotCorrupt, err)
	}
	rest := hdr[len(hdr)-cr.Remaining():]
	ncols, sz := binary.Uvarint(rest)
	if sz <= 0 || ncols == 0 || ncols > maxSnapshotCols {
		return nil, fmt.Errorf("%w: table %q: bad column count", ErrSnapshotCorrupt, name)
	}
	rest = rest[sz:]
	cols := make([]Column, 0, ncols)
	for c := uint64(0); c < ncols; c++ {
		ccr := pagefmt.NewCellReader(rest)
		cname, err := ccr.String()
		if err != nil || ccr.Remaining() < 1 {
			return nil, fmt.Errorf("%w: table %q: bad column header", ErrSnapshotCorrupt, name)
		}
		rest = rest[len(rest)-ccr.Remaining():]
		typ := ColumnType(rest[0])
		rest = rest[1:]
		if typ < Float32Col || typ > BlobCol {
			return nil, fmt.Errorf("%w: table %q column %q: unknown type %d", ErrSnapshotCorrupt, name, cname, typ)
		}
		cols = append(cols, Column{Name: cname, Type: typ})
	}
	rows, sz := binary.Uvarint(rest)
	if sz <= 0 || len(rest[sz:]) < 8 {
		return nil, fmt.Errorf("%w: table %q: bad row count", ErrSnapshotCorrupt, name)
	}
	if rows*4 > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: table %q: implausible row count %d", ErrSnapshotCorrupt, name, rows)
	}

	t, err := NewTable(name, cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	for ci, col := range cols {
		if err := t.loadColumnPages(r, ci, rows); err != nil {
			return nil, fmt.Errorf("%w: table %q column %q: %v", ErrSnapshotCorrupt, name, col.Name, err)
		}
	}
	t.rows = int(rows)
	t.version.Store(binary.LittleEndian.Uint64(rest[sz:]))
	return t, nil
}

// loadColumnPages reads pages for column ci until rows cells are decoded into
// its storage. A header's row count sizes at most the first 1<<20 rows; past
// that, vectors grow as pages really arrive. The block grows by whole rows
// under the first REAL column's pages; later REAL columns scatter into it.
func (t *Table) loadColumnPages(r io.Reader, ci int, rows uint64) error {
	typ, c, w := colType(t.Columns[ci].Type), &t.cols[ci], len(t.realNames)
	hint := int(min(rows, 1<<20))
	switch typ {
	case pagefmt.Float32:
		t.block = slices.Grow(t.block, max(0, hint*w-len(t.block)))
	case pagefmt.Int64:
		c.ints = make([]int64, 0, hint)
	case pagefmt.Text:
		c.texts = make([]string, 0, hint)
	default:
		c.blobs = make([][]byte, 0, hint)
	}
	var got uint64
	for got < rows {
		p, err := pagefmt.ReadPage(r)
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
		if need := int(got+uint64(p.Rows)) * w; typ == pagefmt.Float32 && need > len(t.block) {
			t.block = append(t.block, make([]float32, need-len(t.block))...)
		}
		cr := pagefmt.NewCellReader(p.Payload)
		for end := got + uint64(p.Rows); got < end; got++ {
			var cellErr error
			switch typ {
			case pagefmt.Float32:
				t.block[int(got)*w+c.pos], cellErr = cr.Float32()
			case pagefmt.Int64:
				var v int64
				v, cellErr = cr.Int64()
				c.ints = append(c.ints, v)
			case pagefmt.Text:
				var v string
				v, cellErr = cr.String()
				c.texts = append(c.texts, v)
			default:
				var v []byte
				v, cellErr = cr.Bytes()
				c.blobs = append(c.blobs, slices.Clone(v))
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
