package db

import (
	"bytes"
	"errors"
	"testing"

	"accelscore/internal/storage/pagefmt"
)

// FuzzParse exercises the T-SQL-subset lexer and parser with arbitrary
// input: it must never panic, and anything it accepts must be one of the two
// statement types. Run with `go test -fuzz=FuzzParse ./internal/db` for a
// real fuzzing session; the seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT TOP 10 a, b FROM t WHERE x >= 1.5 AND s = 'q'",
		"EXEC sp_score_model @model='m', @data='d', @limit=100",
		"select top 0 * from [weird name];",
		"SELECT a FROM t WHERE s = 'it''s'",
		"EXEC p",
		"'",
		"@",
		"[",
		"SELECT * FROM t WHERE x <> -1e9",
		"\x00\xff",
		"SELECT SELECT FROM FROM",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		switch st.(type) {
		case *SelectStmt, *ExecStmt:
		default:
			t.Fatalf("Parse(%q) returned unexpected type %T", sql, st)
		}
	})
}

// FuzzSelectExecution runs parsed SELECTs against a small database: the
// executor must never panic regardless of the query shape.
func FuzzSelectExecution(f *testing.F) {
	f.Add("SELECT * FROM iris WHERE sepal_length > 5")
	f.Add("SELECT TOP 3 label FROM iris")
	f.Add("SELECT nope FROM iris")
	f.Add("SELECT * FROM missing")
	f.Fuzz(func(t *testing.T, sql string) {
		d := newFuzzDB(t)
		_, _, _ = d.Query(sql)
	})
}

var fuzzDBCache *Database

func newFuzzDB(t *testing.T) *Database {
	if fuzzDBCache != nil {
		return fuzzDBCache
	}
	d := New()
	tbl, err := NewTable("iris", []Column{
		{Name: "sepal_length", Type: Float32Col},
		{Name: "label", Type: Int64Col},
		{Name: "name", Type: TextCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Insert([]Value{Float(float32(i)), Int(int64(i % 3)), Text("r")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	fuzzDBCache = d
	return d
}

// FuzzSnapshotLoad feeds arbitrary bytes to Load. It must never panic, every
// error must be one of the two typed snapshot errors, and a database that
// loads must save and reload to the same tables.
func FuzzSnapshotLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := buildPersistFixture(f, 5).Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5]) // torn tail
	flipped := bytes.Clone(valid.Bytes())
	flipped[len(snapshotMagic)+pagefmt.FrameOverhead] ^= 0x10 // the file header's version
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		var saved bytes.Buffer
		if err := d.Save(&saved); err != nil {
			t.Fatalf("loaded database does not save: %v", err)
		}
		again, err := Load(&saved)
		if err != nil {
			t.Fatalf("saved database does not reload: %v", err)
		}
		assertSameTables(t, d, again)
	})
}
