package storage

import (
	"errors"
	"testing"

	"accelscore/internal/db"
	"accelscore/internal/storage/pagefmt"
)

// tableView builds a table holding rows and returns its view, the input of
// the CREATE TABLE encoder.
func tableView(name string, cols []db.Column, rows [][]db.Value) db.TableView {
	tbl, err := db.NewTable(name, cols)
	if err == nil {
		err = tbl.AppendRows(rows)
	}
	if err != nil {
		panic(err)
	}
	return tbl.View()
}

// validWALBytes builds a log containing every record kind, for fuzz seeds.
func validWALBytes() []byte {
	cols := []db.Column{
		{Name: "x", Type: db.Float32Col},
		{Name: "n", Type: db.Int64Col},
		{Name: "s", Type: db.TextCol},
		{Name: "b", Type: db.BlobCol},
	}
	rows := [][]db.Value{
		{db.Float(1.5), db.Int(-7), db.Text("hello"), db.Blob([]byte{1, 2})},
		{db.Float(2.5), db.Int(42), db.Text(""), db.Blob(nil)},
	}
	var out []byte
	out = pagefmt.AppendFrame(out, encodeCreateTable(1, tableView("t", cols, rows)))
	out = pagefmt.AppendFrame(out, encodeInsert(2, "t", cols, rows[:1]))
	out = pagefmt.AppendFrame(out, encodeUpdate(3, &db.UpdateStmt{
		Table: "t",
		Set:   map[string]db.Literal{"x": {N: 9.5}},
		Where: []db.Condition{{Column: "n", Op: ">", Value: db.Literal{N: 0}}},
	}))
	out = pagefmt.AppendFrame(out, encodeDelete(4, &db.DeleteStmt{
		Table: "t",
		Where: []db.Condition{{Column: "s", Op: "=", Value: db.Literal{IsString: true, S: "hello"}}},
	}))
	out = pagefmt.AppendFrame(out, encodeModelStore(5, "m", []byte("model-bytes")))
	out = pagefmt.AppendFrame(out, encodeModelDelete(6, "m"))
	return out
}

// FuzzWALReplay feeds arbitrary bytes through the full boot path: scan for
// the valid prefix, then replay every surviving record into a fresh
// database. Invariants: no panic on any input, scanning is prefix-stable
// (rescanning the accepted prefix accepts all of it), and record decoding
// failures are always the package's typed error.
func FuzzWALReplay(f *testing.F) {
	valid := validWALBytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped) // bit rot
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, prefix := scanWAL(data)
		if prefix < 0 || prefix > int64(len(data)) {
			t.Fatalf("scan accepted %d of %d bytes", prefix, len(data))
		}
		again, againPrefix := scanWAL(data[:prefix])
		if againPrefix != prefix || len(again) != len(records) {
			t.Fatalf("scan not prefix-stable: %d/%d records, %d/%d bytes",
				len(again), len(records), againPrefix, prefix)
		}
		// Replay must never panic; logical failures (e.g. an insert into a
		// table no surviving record created) are ordinary errors.
		d := db.New()
		for _, rec := range records {
			_ = applyRecord(d, rec)
		}
		// Direct record decoding on the raw input returns typed errors only.
		if _, err := decodeRecord(data); err != nil && !errors.Is(err, ErrRecord) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
