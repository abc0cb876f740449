package db

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"testing"
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
				if wv.F != gv.F || wv.I != gv.I || wv.S != gv.S || !bytes.Equal(wv.B, gv.B) {
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
