package db

import (
	"bytes"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/model"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", []Column{{Name: "a", Type: Float32Col}}); err == nil {
		t.Fatal("unnamed table accepted")
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Fatal("column-less table accepted")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate columns accepted")
	}
	if _, err := NewTable("t", []Column{{Name: ""}}); err == nil {
		t.Fatal("unnamed column accepted")
	}
}

func TestInsertAndCell(t *testing.T) {
	tbl, err := NewTable("t", []Column{{Name: "x", Type: Float32Col}, {Name: "s", Type: TextCol}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Float(1.5), Text("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Float(2.5)}); err == nil {
		t.Fatal("short row accepted")
	}
	if tbl.NumRows() != 1 || tbl.Cell(0, 0).F != 1.5 || tbl.Cell(0, 1).S != "a" {
		t.Fatal("cell values wrong")
	}
	rows := tbl.Rows()
	if len(rows) != 1 || rows[0][1].S != "a" {
		t.Fatal("Rows() wrong")
	}
}

func TestTableDatasetRoundTrip(t *testing.T) {
	d := dataset.Iris()
	tbl, err := TableFromDataset("iris", d)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 150 || len(tbl.Columns) != 5 {
		t.Fatalf("table shape %dx%d", tbl.NumRows(), len(tbl.Columns))
	}
	back, err := DatasetFromTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != 150 || back.NumFeatures() != 4 || back.NumClasses() != 3 {
		t.Fatalf("round-trip shape %dx%d classes=%d", back.NumRecords(), back.NumFeatures(), back.NumClasses())
	}
	for i := range d.X {
		if d.X[i] != back.X[i] {
			t.Fatalf("value %d changed", i)
		}
	}
	for i := range d.Y {
		if d.Y[i] != back.Y[i] {
			t.Fatalf("label %d changed", i)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	tbl, _ := NewTable("t", []Column{
		{Name: "f", Type: Float32Col},
		{Name: "i", Type: Int64Col},
		{Name: "s", Type: TextCol},
		{Name: "b", Type: BlobCol},
	})
	tbl.Insert([]Value{Float(1), Int(2), Text("abc"), Blob(make([]byte, 10))})
	if got := tbl.SizeBytes(); got != 4+8+3+10 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestModelStore(t *testing.T) {
	d := New()
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2, Tree: forest.TrainConfig{MaxDepth: 4}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreModel("iris_rf", f); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreModel("iris_rf", f); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	if err := d.StoreModel("", f); err == nil {
		t.Fatal("empty model name accepted")
	}
	blob, err := d.LoadModelBlob("iris_rf")
	if err != nil {
		t.Fatal(err)
	}
	back, err := model.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Trees) != 2 {
		t.Fatalf("stored model has %d trees", len(back.Trees))
	}
	if _, err := d.LoadModelBlob("missing"); err == nil {
		t.Fatal("missing model found")
	}
	names := d.ModelNames()
	if len(names) != 1 || names[0] != "iris_rf" {
		t.Fatalf("ModelNames = %v", names)
	}
}

func TestCreateTableAndCatalog(t *testing.T) {
	d := New()
	tbl, _ := NewTable("data", []Column{{Name: "x", Type: Float32Col}})
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(tbl); err == nil {
		t.Fatal("duplicate table accepted")
	}
	names := d.TableNames()
	if len(names) != 2 || names[0] != "data" || names[1] != ModelsTable {
		t.Fatalf("TableNames = %v", names)
	}
	if _, err := d.Table("nope"); err == nil {
		t.Fatal("missing table found")
	}
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT TOP 5 a, b FROM t WHERE x >= 1.5 AND s = 'it''s' ;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// Spot checks.
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped string not lexed: %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{"SELECT 'unterminated", "SELECT @ FROM t", "SELECT [unclosed FROM t", "SELECT # FROM t"} {
		if _, err := lex(bad); err == nil {
			t.Fatalf("lexer accepted %q", bad)
		}
	}
}

func TestParseSelect(t *testing.T) {
	st, err := Parse("SELECT sepal_length, label FROM iris WHERE petal_width > 1.0 AND label <> 2")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("parsed %T", st)
	}
	if sel.Table != "iris" || len(sel.Columns) != 2 || len(sel.Where) != 2 {
		t.Fatalf("parsed select = %+v", sel)
	}
	if sel.Where[0].Op != ">" || sel.Where[1].Op != "<>" {
		t.Fatalf("operators = %q %q", sel.Where[0].Op, sel.Where[1].Op)
	}
}

func TestParseSelectStarTop(t *testing.T) {
	st, err := Parse("select top 10 * from [my table]")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.Top != 10 || sel.Columns != nil || sel.Table != "my table" {
		t.Fatalf("parsed = %+v", sel)
	}
}

func TestParseExec(t *testing.T) {
	st, err := Parse("EXEC sp_score_model @model = 'iris_rf', @data = 'iris', @backend = 'FPGA', @limit = 1000")
	if err != nil {
		t.Fatal(err)
	}
	ex := st.(*ExecStmt)
	if ex.Proc != "sp_score_model" || len(ex.Params) != 4 {
		t.Fatalf("parsed exec = %+v", ex)
	}
	if ex.Params["model"].S != "iris_rf" || ex.Params["limit"].N != 1000 {
		t.Fatalf("params = %+v", ex.Params)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DELETE t",
		"UPDATE t",
		"UPDATE t SET",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x",
		"SELECT * FROM t WHERE x !! 3",
		"SELECT TOP x * FROM t",
		"EXEC",
		"EXEC p @a",
		"EXEC p @a = ",
		"EXEC p @a = 1, @a = 2",
		"SELECT * FROM t extra",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("parser accepted %q", sql)
		}
	}
}

func TestSelectExecution(t *testing.T) {
	d := New()
	tbl, err := TableFromDataset("iris", dataset.Iris())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	res, _, err := d.Query("SELECT * FROM iris WHERE label = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 50 {
		t.Fatalf("setosa rows = %d, want 50", res.NumRows())
	}

	res, _, err = d.Query("SELECT TOP 7 sepal_length FROM iris WHERE petal_width >= 1.8")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 || len(res.Columns) != 1 {
		t.Fatalf("TOP query shape %dx%d", res.NumRows(), len(res.Columns))
	}

	// Text filtering on the models table.
	f, _ := forest.Train(dataset.Iris(), forest.ForestConfig{NumTrees: 1, Tree: forest.TrainConfig{MaxDepth: 3}, Seed: 1})
	if err := d.StoreModel("m1", f); err != nil {
		t.Fatal(err)
	}
	res, _, err = d.Query("SELECT name FROM models WHERE name = 'm1'")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cell(0, 0).S != "m1" {
		t.Fatalf("model lookup failed: %d rows", res.NumRows())
	}
}

func TestSelectErrors(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT nope FROM iris",
		"SELECT * FROM iris WHERE nope = 1",
		"SELECT * FROM iris WHERE sepal_length = 'text'",
		"SELECT * FROM models WHERE model = 'x'", // blob filter
	}
	for _, sql := range bad {
		if _, _, err := d.Query(sql); err == nil {
			t.Fatalf("query accepted: %q", sql)
		}
	}
}

func TestQueryReturnsExecUnexecuted(t *testing.T) {
	d := New()
	tbl, st, err := d.Query("EXEC sp_score_model @model='m', @data='t'")
	if err != nil {
		t.Fatal(err)
	}
	if tbl != nil {
		t.Fatal("EXEC returned a table")
	}
	if _, ok := st.(*ExecStmt); !ok {
		t.Fatalf("statement type %T", st)
	}
}

func BenchmarkSelectFiltered(b *testing.B) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris().Replicate(10_000))
	d.CreateTable(tbl)
	st, err := Parse("SELECT sepal_length, label FROM iris WHERE petal_width > 1.0")
	if err != nil {
		b.Fatal(err)
	}
	sel := st.(*SelectStmt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCreateTableSQL(t *testing.T) {
	d := New()
	_, _, err := d.Query("CREATE TABLE sensors (temp REAL, id BIGINT, site NVARCHAR)")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("sensors")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 3 || tbl.Columns[0].Type != Float32Col ||
		tbl.Columns[1].Type != Int64Col || tbl.Columns[2].Type != TextCol {
		t.Fatalf("schema = %+v", tbl.Columns)
	}
	// Duplicate create fails.
	if _, _, err := d.Query("CREATE TABLE sensors (x REAL)"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	// Bad type fails at parse time.
	if _, err := Parse("CREATE TABLE t (x FANCYTYPE)"); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestInsertSQL(t *testing.T) {
	d := New()
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := d.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE sensors (temp REAL, id BIGINT, site NVARCHAR)")
	mustExec("INSERT INTO sensors VALUES (21.5, 1, 'lab'), (-3.25, 2, 'roof')")
	tbl, _ := d.Table("sensors")
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Cell(1, 0).F != -3.25 || tbl.Cell(1, 2).S != "roof" {
		t.Fatalf("inserted values wrong: %+v", tbl.Rows())
	}
	// Arity mismatch.
	if _, _, err := d.Query("INSERT INTO sensors VALUES (1.0)"); err == nil {
		t.Fatal("short insert accepted")
	}
	// Type mismatch.
	if _, _, err := d.Query("INSERT INTO sensors VALUES ('x', 1, 'lab')"); err == nil {
		t.Fatal("string into REAL accepted")
	}
	// Missing table.
	if _, _, err := d.Query("INSERT INTO nope VALUES (1)"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
}

func TestOrderBy(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	res, _, err := d.Query("SELECT sepal_length FROM iris ORDER BY sepal_length DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 150 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	for r := 1; r < res.NumRows(); r++ {
		if res.Cell(r, 0).F > res.Cell(r-1, 0).F {
			t.Fatal("DESC order violated")
		}
	}
	// TOP applies after ordering: the 3 largest values.
	res, _, err = d.Query("SELECT TOP 3 sepal_length FROM iris ORDER BY sepal_length DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 || res.Cell(0, 0).F != 7.9 {
		t.Fatalf("TOP-after-ORDER wrong: %v rows, first %v", res.NumRows(), res.Cell(0, 0).F)
	}
	// ASC is the default.
	res, _, err = d.Query("SELECT TOP 1 sepal_length FROM iris ORDER BY sepal_length")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).F != 4.3 {
		t.Fatalf("ASC first = %v, want 4.3", res.Cell(0, 0).F)
	}
	// Bad order column.
	if _, _, err := d.Query("SELECT * FROM iris ORDER BY nope"); err == nil {
		t.Fatal("unknown ORDER BY column accepted")
	}
}

func TestAggregates(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	res, _, err := d.Query("SELECT COUNT(*), AVG(sepal_length), MIN(petal_width), MAX(petal_width) FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || len(res.Columns) != 4 {
		t.Fatalf("aggregate shape %dx%d", res.NumRows(), len(res.Columns))
	}
	if res.Cell(0, 0).I != 150 {
		t.Fatalf("COUNT = %d", res.Cell(0, 0).I)
	}
	avg := res.Cell(0, 1).F
	if avg < 5.8 || avg > 5.9 {
		t.Fatalf("AVG(sepal_length) = %v, want ~5.84", avg)
	}
	if res.Cell(0, 2).F != 0.1 || res.Cell(0, 3).F != 2.5 {
		t.Fatalf("MIN/MAX petal_width = %v/%v", res.Cell(0, 2).F, res.Cell(0, 3).F)
	}
	// COUNT with WHERE.
	res, _, err = d.Query("SELECT COUNT(*) FROM iris WHERE label = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).I != 50 {
		t.Fatalf("filtered COUNT = %d", res.Cell(0, 0).I)
	}
	// SUM over an integer column.
	res, _, err = d.Query("SELECT SUM(label) FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).F != 150 { // 50*0 + 50*1 + 50*2
		t.Fatalf("SUM(label) = %v", res.Cell(0, 0).F)
	}
}

func TestAggregateErrors(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	bad := []string{
		"SELECT AVG(*) FROM iris",
		"SELECT AVG(nope) FROM iris",
		"SELECT sepal_length, COUNT(*) FROM iris",
		"SELECT COUNT(*) FROM iris ORDER BY sepal_length",
	}
	for _, sql := range bad {
		if _, _, err := d.Query(sql); err == nil {
			t.Fatalf("accepted: %q", sql)
		}
	}
	// Aggregating a text column fails.
	if _, _, err := d.Query("SELECT AVG(name) FROM models"); err == nil {
		t.Fatal("AVG over NVARCHAR accepted")
	}
	// Aggregate over empty filter result returns zero values, not an error.
	res, _, err := d.Query("SELECT COUNT(*), AVG(sepal_length) FROM iris WHERE sepal_length > 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).I != 0 || res.Cell(0, 1).F != 0 {
		t.Fatalf("empty aggregate = %v/%v", res.Cell(0, 0).I, res.Cell(0, 1).F)
	}
}

func TestDeleteSQL(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	// Delete one class.
	st, err := Parse("DELETE FROM iris WHERE label = 0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Delete(st.(*DeleteStmt))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || tbl.NumRows() != 100 {
		t.Fatalf("deleted %d, %d rows remain", n, tbl.NumRows())
	}
	// Remaining rows have no label-0 entries.
	res, _, err := d.Query("SELECT COUNT(*) FROM iris WHERE label = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).I != 0 {
		t.Fatal("deleted rows still visible")
	}
	// DELETE with no WHERE empties the table.
	if _, _, err := d.Query("DELETE FROM iris"); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 {
		t.Fatalf("%d rows remain after full delete", tbl.NumRows())
	}
	// Errors.
	if _, _, err := d.Query("DELETE FROM missing"); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, _, err := d.Query("DELETE FROM iris WHERE nope = 1"); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestUpdateSQL(t *testing.T) {
	d := New()
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := d.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE s (temp REAL, id BIGINT, site NVARCHAR)")
	mustExec("INSERT INTO s VALUES (10.0, 1, 'lab'), (20.0, 2, 'roof'), (30.0, 3, 'lab')")
	mustExec("UPDATE s SET temp = 0.0, site = 'calib' WHERE site = 'lab'")
	tbl, _ := d.Table("s")
	if tbl.Cell(0, 0).F != 0 || tbl.Cell(0, 2).S != "calib" {
		t.Fatalf("row 0 not updated: %+v", tbl.Rows()[0])
	}
	if tbl.Cell(1, 0).F != 20 || tbl.Cell(1, 2).S != "roof" {
		t.Fatalf("row 1 should be untouched: %+v", tbl.Rows()[1])
	}
	if tbl.Cell(2, 0).F != 0 {
		t.Fatal("row 2 not updated")
	}
	// Update without WHERE touches everything.
	st, _ := Parse("UPDATE s SET id = 9")
	n, err := d.Update(st.(*UpdateStmt))
	if err != nil || n != 3 {
		t.Fatalf("full update: n=%d err=%v", n, err)
	}
	// Errors.
	if _, _, err := d.Query("UPDATE s SET nope = 1"); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, _, err := d.Query("UPDATE s SET temp = 'hot'"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := Parse("UPDATE s SET temp = 1, temp = 2"); err == nil {
		t.Fatal("duplicate SET column accepted")
	}
	if _, _, err := d.Query("UPDATE missing SET x = 1"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := New()
	tbl, _ := TableFromDataset("iris", dataset.Iris())
	d.CreateTable(tbl)
	f, _ := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 3, Tree: forest.TrainConfig{MaxDepth: 5}, Seed: 1, Bootstrap: true,
	})
	if err := d.StoreModel("m", f); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/db.gob"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tables intact.
	bt, err := back.Table("iris")
	if err != nil {
		t.Fatal(err)
	}
	if bt.NumRows() != 150 || bt.Cell(0, 0).F != 5.1 {
		t.Fatalf("restored table wrong: %d rows", bt.NumRows())
	}
	// Model blob intact and loadable.
	blob, err := back.LoadModelBlob("m")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := model.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	dta := dataset.Iris()
	for i := 0; i < dta.NumRecords(); i += 10 {
		if restored.PredictClass(dta.Row(i)) != f.PredictClass(dta.Row(i)) {
			t.Fatalf("restored model differs on row %d", i)
		}
	}
	// Queries work against the restored database.
	res, _, err := back.Query("SELECT COUNT(*) FROM iris WHERE label = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell(0, 0).I != 50 {
		t.Fatalf("restored query = %d", res.Cell(0, 0).I)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := LoadFile("/nonexistent/path/db.gob"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDeleteModel(t *testing.T) {
	d := New()
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 1, Tree: forest.TrainConfig{MaxDepth: 2}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteModel("absent"); err == nil {
		t.Fatal("deleting a missing model succeeded")
	}
	if err := d.StoreModel("m", f); err != nil {
		t.Fatal(err)
	}
	models, err := d.Table(ModelsTable)
	if err != nil {
		t.Fatal(err)
	}
	versionBefore := models.Version()
	if err := d.DeleteModel("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadModelBlob("m"); err == nil {
		t.Fatal("deleted model still loadable")
	}
	if models.Version() == versionBefore {
		t.Fatal("DeleteModel did not bump the models table version")
	}
	// Delete + store under the same name is the documented replacement path.
	if err := d.StoreModel("m", f); err != nil {
		t.Fatalf("re-storing after delete: %v", err)
	}
	if names := d.ModelNames(); len(names) != 1 || names[0] != "m" {
		t.Fatalf("ModelNames after replace = %v", names)
	}
}
