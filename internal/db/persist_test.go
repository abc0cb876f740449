package db

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"accelscore/internal/storage/pagefmt"
)

// buildPersistFixture makes a database exercising every column type plus a
// stored model blob.
func buildPersistFixture(t testing.TB, rows int) *Database {
	t.Helper()
	d := New()
	tbl, err := NewTable("mixed", []Column{
		{Name: "f", Type: Float32Col},
		{Name: "i", Type: Int64Col},
		{Name: "s", Type: TextCol},
		{Name: "b", Type: BlobCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		row := []Value{
			Float(float32(r) * 0.25),
			Int(int64(r) - 3),
			Text(fmt.Sprintf("row-%d", r)),
			Blob([]byte{byte(r), byte(r >> 8)}),
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreModelBlob("m1", []byte("serialized-model-bytes")); err != nil {
		t.Fatal(err)
	}
	return d
}

// assertSameTables fails unless got contains exactly want's tables with
// identical schemas and cells.
func assertSameTables(t *testing.T, want, got *Database) {
	t.Helper()
	wantNames := want.TableNames()
	gotNames := got.TableNames()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("table names: got %v, want %v", gotNames, wantNames)
	}
	for _, name := range wantNames {
		wt, _ := want.Table(name)
		gt, err := got.Table(name)
		if err != nil {
			t.Fatalf("table %q missing after reload", name)
		}
		if len(wt.Columns) != len(gt.Columns) {
			t.Fatalf("table %q: schema length %d, want %d", name, len(gt.Columns), len(wt.Columns))
		}
		for i := range wt.Columns {
			if wt.Columns[i] != gt.Columns[i] {
				t.Fatalf("table %q column %d: %+v, want %+v", name, i, gt.Columns[i], wt.Columns[i])
			}
		}
		wr, gr := wt.Rows(), gt.Rows()
		if len(wr) != len(gr) {
			t.Fatalf("table %q: %d rows, want %d", name, len(gr), len(wr))
		}
		for r := range wr {
			for c := range wr[r] {
				wv, gv := wr[r][c], gr[r][c]
				if math.Float32bits(wv.F) != math.Float32bits(gv.F) || wv.I != gv.I || wv.S != gv.S || !bytes.Equal(wv.B, gv.B) {
					t.Fatalf("table %q cell (%d,%d): %+v, want %+v", name, r, c, gv, wv)
				}
			}
		}
	}
}

func TestBinarySnapshotRoundTripAllTypes(t *testing.T) {
	d := buildPersistFixture(t, 100)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), snapshotMagic[:]) {
		t.Fatalf("Save did not write the binary page format magic")
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertSameTables(t, d, back)
	blob, err := back.LoadModelBlob("m1")
	if err != nil || string(blob) != "serialized-model-bytes" {
		t.Fatalf("model blob after reload: %q, %v", blob, err)
	}
}

// TestLoadGarbageGetsTypedError: anything that does not start with the page
// magic is ErrSnapshotFormat — text, a prefix shorter than the magic (even a
// prefix of the magic itself), nothing at all, and the gob stream the
// pre-page-format builds wrote, which this build no longer reads.
func TestLoadGarbageGetsTypedError(t *testing.T) {
	var formerGob bytes.Buffer
	type tableSnapshot struct {
		Name    string
		Columns []Column
		Cols    [][]Value
	}
	err := gob.NewEncoder(&formerGob).Encode(struct{ Tables []tableSnapshot }{
		Tables: []tableSnapshot{{
			Name:    "t",
			Columns: []Column{{Name: "x", Type: Int64Col}},
			Cols:    [][]Value{{Int(1), Int(2)}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{
		"text":         []byte("definitely not a snapshot of any era"),
		"short":        []byte("nope"),
		"magic-prefix": snapshotMagic[:5],
		"empty":        nil,
		"former-gob":   formerGob.Bytes(),
	} {
		if _, err := Load(bytes.NewReader(in)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: err = %v, want ErrSnapshotFormat", name, err)
		}
	}
}

func TestLoadCorruptBinarySnapshot(t *testing.T) {
	d := buildPersistFixture(t, 200)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	t.Run("torn-tail", func(t *testing.T) {
		for _, cut := range []int{len(enc) - 1, len(enc) - 13, len(enc) / 2, 9} {
			if _, err := Load(bytes.NewReader(enc[:cut])); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("cut %d: err = %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		for _, pos := range []int{10, 60, len(enc) / 2, len(enc) - 20} {
			bad := append([]byte(nil), enc...)
			bad[pos] ^= 0x20
			if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("flip at %d: err = %v, want ErrSnapshotCorrupt", pos, err)
			}
		}
	})
	t.Run("missing-end-marker", func(t *testing.T) {
		// Drop the end frame entirely: the loader must notice.
		cut := len(enc) - (len([]byte(snapshotEnd)) + 8)
		if _, err := Load(bytes.NewReader(enc[:cut])); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSaveStreamsWithoutDeepCopy pins the streaming property: Save's
// allocations must not scale with row count (the old gob path deep-copied
// every column vector, so allocations grew linearly with the table).
func TestSaveStreamsWithoutDeepCopy(t *testing.T) {
	small := buildPersistFixture(t, 500)
	large := buildPersistFixture(t, 8000)

	measure := func(d *Database) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := d.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs := measure(small)
	largeAllocs := measure(large)
	// 16x the rows may cost a few extra buffer growths, never ~16x allocs.
	if largeAllocs > smallAllocs+64 {
		t.Fatalf("Save allocations scale with table size: %.0f allocs at 500 rows, %.0f at 8000",
			smallAllocs, largeAllocs)
	}
}

func TestAppendRows(t *testing.T) {
	tbl, err := NewTable("t", []Column{
		{Name: "f", Type: Float32Col},
		{Name: "i", Type: Int64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	rows := [][]Value{
		{Float(1.5), Int(10)},
		{Float(2.5), Int(20)},
		{Float(3.5), Int(30)},
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if tbl.Version() != v0+1 {
		t.Fatalf("bulk append should cost one version bump, got %d", tbl.Version()-v0)
	}
	if got := tbl.Cell(2, 1).I; got != 30 {
		t.Fatalf("cell (2,1) = %d", got)
	}
	// A bad batch changes nothing.
	bad := [][]Value{{Float(9)}, {Float(8), Int(7)}}
	if err := tbl.AppendRows(bad); err == nil {
		t.Fatalf("short row should fail")
	}
	if tbl.NumRows() != 3 || tbl.Version() != v0+1 {
		t.Fatalf("failed batch mutated the table")
	}
}

// splitRealTable builds a table of n rows whose REAL columns are split by a
// BIGINT, a TEXT and a BLOB column, its REAL cells drawn from a pool that
// holds NaN payloads, −0 and ±Inf.
func splitRealTable(t testing.TB, n int) *Table {
	t.Helper()
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff), math.Float32frombits(0x7f800001)}
	tbl, err := NewTable(fmt.Sprintf("split_%d", n), []Column{
		{Name: "a", Type: Float32Col},
		{Name: "i", Type: Int64Col},
		{Name: "b", Type: Float32Col},
		{Name: "c", Type: Float32Col},
		{Name: "s", Type: TextCol},
		{Name: "d", Type: Float32Col},
		{Name: "bl", Type: BlobCol},
		{Name: "e", Type: Float32Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(r, c int) Value {
		if (r*7+c)%5 == 0 {
			return Float(specials[(r+c)%len(specials)])
		}
		return Float(float32(r)*0.5 - float32(c)*1e3)
	}
	rows := make([][]Value, n)
	for r := range rows {
		rows[r] = []Value{cell(r, 0), Int(int64(r) * -3), cell(r, 1), cell(r, 2),
			Text(fmt.Sprintf("row %d", r)), cell(r, 3), Blob([]byte{byte(r), byte(r >> 8)}), cell(r, 4)}
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// referenceSave is Save as it was before REAL pages were filled a run at a
// time: every REAL cell is one append to its page, read off the block at its
// row and column, and a page is sent once its payload reaches the budget.
func referenceSave(d *Database) []byte {
	out := append([]byte(nil), snapshotMagic[:]...)
	names := d.tableNamesLocked()
	hdr := binary.LittleEndian.AppendUint16(nil, snapshotVersion)
	out = pagefmt.AppendFrame(out, binary.AppendUvarint(hdr, uint64(len(names))))
	for _, name := range names {
		t := d.tables[name]
		rows, version := t.rows, t.version.Load()
		hdr := pagefmt.AppendString(nil, t.Name)
		hdr = binary.AppendUvarint(hdr, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			hdr = append(pagefmt.AppendString(hdr, c.Name), byte(c.Type))
		}
		hdr = binary.AppendUvarint(hdr, uint64(rows))
		out = pagefmt.AppendFrame(out, binary.LittleEndian.AppendUint64(hdr, version))
		var b pagefmt.Builder
		for ci, col := range t.Columns {
			b.Reset(pagefmt.ColType(col.Type), uint32(ci), version, pagefmt.DefaultPayload, func(p *pagefmt.Page) error {
				out = append(p.AppendHeader(out), p.Payload...)
				return nil
			})
			c := &t.cols[ci]
			page := pagefmt.Page{Type: pagefmt.Float32, ColIndex: uint32(ci), TableVersion: version}
			for r := 0; r < rows; r++ {
				switch col.Type {
				case Float32Col:
					page.Payload = pagefmt.AppendFloat32(page.Payload, t.block[r*len(t.realNames)+c.pos])
					if page.Rows++; len(page.Payload) >= pagefmt.DefaultPayload || r == rows-1 {
						out = append(page.AppendHeader(out), page.Payload...)
						page.StartRow, page.Rows, page.Payload = page.StartRow+uint64(page.Rows), 0, nil
					}
				case Int64Col:
					b.AddInt64(c.Ints[r])
				case TextCol:
					b.AddString(c.Texts[r])
				default:
					b.AddBytes(c.Blobs[r])
				}
			}
			b.Flush()
		}
	}
	return pagefmt.AppendFrame(out, []byte(snapshotEnd))
}

// TestSaveMatchesPerCellReference: Save's bytes equal the per-cell
// reference's for tables whose REAL columns are split by other columns, at
// row counts around the 8 192-cell page budget, and Load gives back every
// cell bit for bit — NaN payloads and −0 included — and saves to the same
// bytes again.
func TestSaveMatchesPerCellReference(t *testing.T) {
	for _, n := range []int{0, 1, 8191, 8192, 8193, 20_000} {
		d := New()
		want := splitRealTable(t, n)
		if err := d.CreateTable(want); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), referenceSave(d)) {
			t.Fatalf("%d rows: Save differs from the per-cell reference", n)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		got, err := back.Table(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.rows != n || len(got.block) != len(want.block) {
			t.Fatalf("%d rows: loaded %d rows and %d REAL cells, want %d", n, got.rows, len(got.block), len(want.block))
		}
		for i, f := range want.block {
			if math.Float32bits(got.block[i]) != math.Float32bits(f) {
				t.Fatalf("%d rows: REAL cell (%d, %d) has bits %#x, want %#x", n,
					i/len(want.realNames), i%len(want.realNames), math.Float32bits(got.block[i]), math.Float32bits(f))
			}
		}
		assertSameTables(t, d, back)
		var again bytes.Buffer
		if err := back.Save(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("%d rows: Save(Load(Save)) differs from Save (%v)", n, err)
		}
	}
}

// TestLoadSizesForArrivingCells: a table header that declares 1<<20 rows of
// 256 REAL columns, and then ends, costs Load a bounded allocation before it
// fails — not the 1 GiB the declared cells would fill.
func TestLoadSizesForArrivingCells(t *testing.T) {
	hdr := pagefmt.AppendString(nil, "wide")
	hdr = binary.AppendUvarint(hdr, 256)
	for c := range 256 {
		hdr = append(pagefmt.AppendString(hdr, fmt.Sprintf("f%d", c)), byte(Float32Col))
	}
	hdr = binary.LittleEndian.AppendUint64(binary.AppendUvarint(hdr, 1<<20), 1)
	snap := pagefmt.AppendFrame(append([]byte(nil), snapshotMagic[:]...),
		binary.AppendUvarint(binary.LittleEndian.AppendUint16(nil, snapshotVersion), 1))
	snap = pagefmt.AppendFrame(snap, hdr)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(snap))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a header of 1<<20 rows × 256 REAL columns and no pages allocated %d MiB", grew>>20)
	}
}
