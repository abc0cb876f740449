package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/model"
	"accelscore/internal/storage/pagefmt"
)

// testdata/parent is a data directory written by commit 2122e8f, before the
// WAL-record, RFX and snapshot-header decoders moved onto pagefmt.CellReader.
// It was made by a store that ran:
//
//	CreateTable cells (every column type, cellsRows)       LSN 1
//	CreateTable obs (obsRows)                              LSN 2
//	StoreModel  iris_a (parentForestA)                     LSN 3
//	Compact                                                → data.snap at LSN 3
//	CreateTable events (eventsRows)                        LSN 4  ┐
//	INSERT INTO obs VALUES (4.5, 1, 'c'), (6.5, 0, 'd')    LSN 5  │
//	UPDATE obs SET x = 99, tag = 'z' WHERE label = 1       LSN 6  │ wal.log
//	DELETE FROM events WHERE note = 'second'               LSN 7  │
//	StoreModel  iris_b (parentForestB)                     LSN 8  │
//	DeleteModel iris_a                                     LSN 9  ┘
//
// so the snapshot and the log between them hold every column type, both
// model blobs and one record of each op kind.
const parentFixtureDir = "testdata/parent"

var (
	cellsCols = []db.Column{
		{Name: "x", Type: db.Float32Col},
		{Name: "n", Type: db.Int64Col},
		{Name: "s", Type: db.TextCol},
		{Name: "b", Type: db.BlobCol},
	}
	cellsRows = [][]db.Value{
		{db.Float(1.5), db.Int(-7), db.Text("hello"), db.Blob([]byte{1, 2, 3})},
		{db.Float(-0.25), db.Int(1 << 40), db.Text(""), db.Blob(nil)},
		{db.Float(3e-3), db.Int(0), db.Text("ünï"), db.Blob([]byte{0xff})},
	}
	obsCols = []db.Column{
		{Name: "x", Type: db.Float32Col},
		{Name: "label", Type: db.Int64Col},
		{Name: "tag", Type: db.TextCol},
	}
	obsRows = [][]db.Value{
		{db.Float(0.5), db.Int(1), db.Text("a")},
		{db.Float(2.5), db.Int(0), db.Text("b")},
	}
	eventsCols = []db.Column{
		{Name: "id", Type: db.Int64Col},
		{Name: "score", Type: db.Float32Col},
		{Name: "note", Type: db.TextCol},
		{Name: "raw", Type: db.BlobCol},
	}
	eventsRows = [][]db.Value{
		{db.Int(1), db.Float(0.75), db.Text("first"), db.Blob([]byte{9, 8})},
		{db.Int(2), db.Float(-1.5), db.Text("second"), db.Blob(nil)},
	}
)

// parentForestA is a two-tree IRIS-shaped classifier.
func parentForestA() *forest.Forest {
	leaf := func(class int, value float64, samples int) *forest.Node {
		return &forest.Node{Class: class, Value: value, Samples: samples}
	}
	return &forest.Forest{
		Kind:         forest.Classifier,
		NumFeatures:  4,
		NumClasses:   3,
		FeatureNames: []string{"sepal_length", "sepal_width", "petal_length", "petal_width"},
		ClassNames:   []string{"setosa", "versicolor", "virginica"},
		Trees: []*forest.Tree{
			{NumFeatures: 4, NumClasses: 3, Root: &forest.Node{
				Feature: 2, Threshold: 2.45, Class: 0, Value: 1, Samples: 150,
				Left: leaf(0, 0, 50),
				Right: &forest.Node{
					Feature: 3, Threshold: 1.75, Class: 1, Value: 1.5, Samples: 100,
					Left: leaf(1, 1, 54), Right: leaf(2, 2, 46),
				},
			}},
			{NumFeatures: 4, NumClasses: 3, Root: &forest.Node{
				Feature: 0, Threshold: 5.8, Class: 2, Value: 1.2, Samples: 150,
				Left: leaf(0, 0.4, 80), Right: leaf(2, 1.9, 70),
			}},
		},
	}
}

// parentForestB is a one-tree boosted binary classifier with a base score.
func parentForestB() *forest.Forest {
	return &forest.Forest{
		Kind:         forest.Boosted,
		NumFeatures:  2,
		NumClasses:   2,
		FeatureNames: []string{"f0", "f1"},
		ClassNames:   []string{"no", "yes"},
		BaseScore:    -0.405465,
		Trees: []*forest.Tree{{NumFeatures: 2, NumClasses: 2, Root: &forest.Node{
			Feature: 1, Threshold: -0.5, Class: 1, Value: 0.05, Samples: 10,
			Left:  &forest.Node{Class: 0, Value: -0.2, Samples: 4},
			Right: &forest.Node{Class: 1, Value: 0.3, Samples: 6},
		}}},
	}
}

func mustMarshal(t *testing.T, f *forest.Forest) []byte {
	t.Helper()
	blob, err := model.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// requireTable fails unless d's table holds exactly cols and rows.
func requireTable(t *testing.T, d *db.Database, name string, cols []db.Column, rows [][]db.Value) {
	t.Helper()
	tbl, err := d.Table(name)
	if err != nil {
		t.Fatalf("table %q: %v", name, err)
	}
	if !reflect.DeepEqual(tbl.Columns, cols) {
		t.Fatalf("table %q columns %+v, want %+v", name, tbl.Columns, cols)
	}
	requireRows(t, "table "+name, tbl.Rows(), rows)
}

// requireRows fails unless got holds exactly want, cell for cell (REAL
// cells by bit pattern).
func requireRows(t *testing.T, what string, got, want [][]db.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			g, w := got[r][c], want[r][c]
			if math.Float32bits(g.F) != math.Float32bits(w.F) || g.I != w.I || g.S != w.S || !bytes.Equal(g.B, w.B) {
				t.Fatalf("%s cell (%d,%d) = %+v, want %+v", what, r, c, g, w)
			}
		}
	}
}

// requireForest fails unless blob decodes to want, field by field, and
// re-encodes to blob byte for byte.
func requireForest(t *testing.T, blob []byte, want *forest.Forest) {
	t.Helper()
	got, err := model.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded forest %+v, want %+v", got, want)
	}
	if again := mustMarshal(t, got); !bytes.Equal(again, blob) {
		t.Fatalf("re-marshalled blob differs from the parent's (%d vs %d bytes)", len(again), len(blob))
	}
}

// TestParentWrittenDirectoryLoads: a data directory the parent wrote boots,
// holds exactly the state built here, and every part of it re-encodes to the
// bytes on disk.
func TestParentWrittenDirectoryLoads(t *testing.T) {
	dir := t.TempDir()
	snapBytes, err := os.ReadFile(filepath.Join(parentFixtureDir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(parentFixtureDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{snapshotFile: snapBytes, walFile: walBytes} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blobA, blobB := mustMarshal(t, parentForestA()), mustMarshal(t, parentForestB())
	modelCols := []db.Column{{Name: "name", Type: db.TextCol}, {Name: "model", Type: db.BlobCol}}

	t.Run("open", func(t *testing.T) {
		s, d, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if ri := s.Recovery(); !ri.SnapshotLoaded || ri.SnapshotLSN != 3 || ri.ReplayedRecords != 6 || ri.DroppedWALBytes != 0 {
			t.Fatalf("recovery %+v, want the snapshot at LSN 3 and 6 replayed records", ri)
		}
		if got, want := d.TableNames(), []string{"cells", "events", db.ModelsTable, "obs"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("tables %v, want %v", got, want)
		}
		requireTable(t, d, "cells", cellsCols, cellsRows)
		requireTable(t, d, "obs", obsCols, [][]db.Value{
			{db.Float(99), db.Int(1), db.Text("z")},
			{db.Float(2.5), db.Int(0), db.Text("b")},
			{db.Float(99), db.Int(1), db.Text("z")},
			{db.Float(6.5), db.Int(0), db.Text("d")},
		})
		requireTable(t, d, "events", eventsCols, eventsRows[:1])
		requireTable(t, d, db.ModelsTable, modelCols, [][]db.Value{{db.Text("iris_b"), db.Blob(blobB)}})
	})

	t.Run("snapshot", func(t *testing.T) {
		d, lsn, loaded, err := loadSnapshot(filepath.Join(parentFixtureDir, snapshotFile))
		if err != nil || !loaded || lsn != 3 {
			t.Fatalf("loadSnapshot: lsn %d loaded %v err %v", lsn, loaded, err)
		}
		requireTable(t, d, "cells", cellsCols, cellsRows)
		requireTable(t, d, "obs", obsCols, obsRows)
		requireTable(t, d, db.ModelsTable, modelCols, [][]db.Value{{db.Text("iris_a"), db.Blob(blobA)}})
		stored, err := d.LoadModelBlob("iris_a")
		if err != nil {
			t.Fatal(err)
		}
		requireForest(t, stored, parentForestA())

		// The body after the store's magic and LSN frame is db.Save's output.
		body := snapBytes[len(storeMagic)+pagefmt.FrameOverhead+8:]
		var again bytes.Buffer
		if err := d.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("Load then Save gives %d bytes that differ from the parent's %d", again.Len(), len(body))
		}
	})

	t.Run("wal", func(t *testing.T) {
		records, valid := scanWAL(walBytes)
		if valid != int64(len(walBytes)) || len(records) != 6 {
			t.Fatalf("scan accepted %d records over %d of %d bytes", len(records), valid, len(walBytes))
		}
		want := []*record{
			{lsn: 4, kind: opCreateTable, table: "events", cols: eventsCols, rows: eventsRows},
			{lsn: 5, kind: opInsert, table: "obs", rows: [][]db.Value{
				{db.Float(4.5), db.Int(1), db.Text("c")},
				{db.Float(6.5), db.Int(0), db.Text("d")},
			}},
			{lsn: 6, kind: opUpdate, update: &db.UpdateStmt{
				Table: "obs",
				Set:   map[string]db.Literal{"x": {N: 99}, "tag": {IsString: true, S: "z"}},
				Where: []db.Condition{{Column: "label", Op: "=", Value: db.Literal{N: 1}}},
			}},
			{lsn: 7, kind: opDelete, del: &db.DeleteStmt{
				Table: "events",
				Where: []db.Condition{{Column: "note", Op: "=", Value: db.Literal{IsString: true, S: "second"}}},
			}},
			{lsn: 8, kind: opModelStore, model: "iris_b", blob: blobB},
			{lsn: 9, kind: opModelDelete, model: "iris_a"},
		}
		payloads := walPayloads(t, walBytes)
		for i, rec := range records {
			w := want[i]
			if rec.lsn != w.lsn || rec.kind != w.kind || rec.table != w.table || rec.model != w.model ||
				!reflect.DeepEqual(rec.cols, w.cols) || !reflect.DeepEqual(rec.update, w.update) ||
				!reflect.DeepEqual(rec.del, w.del) || !bytes.Equal(rec.blob, w.blob) {
				t.Fatalf("record %d = %+v, want %+v", i, rec, w)
			}
			requireRows(t, fmt.Sprintf("record %d", i), rec.rows, w.rows)
			if again := encodeRecord(rec, obsCols); !bytes.Equal(again, payloads[i]) {
				t.Fatalf("record %d re-encodes to bytes that differ from the parent's", i)
			}
		}
		requireForest(t, records[4].blob, parentForestB())
	})

	t.Run("overlong count", func(t *testing.T) {
		// The DELETE record is lsn | op | "events" | condition count 1 | …;
		// spelling that count 0x81 0x00 keeps its value and must be refused.
		payload := walPayloads(t, walBytes)[3]
		at := 8 + 1 + 1 + len("events")
		if payload[at] != 1 {
			t.Fatalf("byte %d of the DELETE record is %#x, want the condition count 1", at, payload[at])
		}
		if _, err := decodeRecord(payload); err != nil {
			t.Fatal(err)
		}
		forged := append(append(append([]byte(nil), payload[:at]...), 0x81, 0x00), payload[at+1:]...)
		if _, err := decodeRecord(forged); !errors.Is(err, ErrRecord) {
			t.Fatalf("overlong count: err = %v, want ErrRecord", err)
		}
	})
}

// walPayloads splits a log into its frames' record payloads.
func walPayloads(t *testing.T, log []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(log) > 0 {
		payload, n, err := pagefmt.DecodeFrame(log, maxWALRecord)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, payload)
		log = log[n:]
	}
	return out
}

// encodeRecord re-encodes a decoded record through the writer's encode*. An
// INSERT record does not carry its table's schema, so the caller passes it.
func encodeRecord(rec *record, insertCols []db.Column) []byte {
	switch rec.kind {
	case opCreateTable:
		return encodeCreateTable(rec.lsn, tableView(rec.table, rec.cols, rec.rows))
	case opInsert:
		return encodeInsert(rec.lsn, rec.table, insertCols, rec.rows)
	case opUpdate:
		return encodeUpdate(rec.lsn, rec.update)
	case opDelete:
		return encodeDelete(rec.lsn, rec.del)
	case opModelStore:
		return encodeModelStore(rec.lsn, rec.model, rec.blob)
	default:
		return encodeModelDelete(rec.lsn, rec.model)
	}
}
