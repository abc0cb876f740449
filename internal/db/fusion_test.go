package db

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"accelscore/internal/dataset"
)

// wideTable builds a table with extra junk REAL columns around the iris
// features plus the label, mimicking the wide-table scoring shape.
func wideTable(t *testing.T, junk int) *Table {
	t.Helper()
	iris := dataset.Iris()
	cols := []Column{}
	for _, f := range iris.FeatureNames {
		cols = append(cols, Column{Name: f, Type: Float32Col})
	}
	for j := 0; j < junk; j++ {
		cols = append(cols, Column{Name: "junk_" + string(rune('a'+j)), Type: Float32Col})
	}
	cols = append(cols, Column{Name: "label", Type: Int64Col})
	tbl, err := NewTable("wide", cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iris.NumRecords(); i++ {
		row := make([]Value, 0, len(cols))
		for _, f := range iris.Row(i) {
			row = append(row, Float(f))
		}
		for j := 0; j < junk; j++ {
			row = append(row, Float(float32(i*j)))
		}
		row = append(row, Int(int64(iris.Y[i])))
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// reference builds rows [0, limit) of the named columns cell by cell — the
// oracle every dataset a table hands out is compared against.
func reference(tbl *Table, features []string, limit int) []float32 {
	n := tbl.NumRows()
	if limit > 0 && limit < n {
		n = limit
	}
	var x []float32
	for r := 0; r < n; r++ {
		for _, f := range features {
			x = append(x, tbl.Cell(r, tbl.ColumnIndex(f)).F)
		}
	}
	return x
}

// TestDatasetSnapshotForProjection: the table's own REAL columns in schema
// order — asked for by name or as nil — come back as a view of the block
// (hit, no copy, capacity clipped); any other projection is gathered into an
// owned copy (miss). Both equal the cell-by-cell reference, before and after
// a mutation, and the hit flag is what the pipeline's counters are built on.
func TestDatasetSnapshotForProjection(t *testing.T) {
	tbl := wideTable(t, 6)
	iris := dataset.Iris().FeatureNames
	all := slices.Clone(tbl.realNames)
	reordered := []string{iris[2], "junk_b", iris[0]}

	check := func(what string, features []string, limit int, wantView bool) *dataset.Dataset {
		t.Helper()
		d, hit, err := tbl.DatasetSnapshotFor(features, limit)
		if err != nil || hit != wantView {
			t.Fatalf("%s: hit=%v (want %v) err=%v", what, hit, wantView, err)
		}
		names := features
		if names == nil {
			names = all
		}
		if !slices.Equal(d.FeatureNames, names) || !slices.Equal(d.X, reference(tbl, names, limit)) {
			t.Fatalf("%s: dataset differs from the cell-by-cell reference", what)
		}
		if cap(d.X) != len(d.X) {
			t.Fatalf("%s: cap(X) = %d, len(X) = %d: an append could reach past the dataset", what, cap(d.X), len(d.X))
		}
		if len(d.Y) != 0 {
			t.Fatalf("%s: scoring input carries %d labels", what, len(d.Y))
		}
		return d
	}

	v1 := check("nil projection", nil, 0, true)
	v2 := check("schema-order projection", all, 0, true)
	if &v1.X[0] != &v2.X[0] {
		t.Fatal("two views with no mutation between them do not share a backing array")
	}
	if bounded := check("bounded view", all, 40, true); &bounded.X[0] != &v1.X[0] || bounded.NumRecords() != 40 {
		t.Fatalf("a bounded view must be a prefix of the same block (rows=%d)", bounded.NumRecords())
	}
	g1 := check("model features of a wider table", iris, 0, false)
	g2 := check("the same again", iris, 0, false)
	if &g1.X[0] == &g2.X[0] || &g1.X[0] == &v1.X[0] {
		t.Fatal("a gathered projection must be a copy the caller owns")
	}
	check("reordered subset", reordered, 0, false)
	check("reordered subset, bounded", reordered, 25, false)

	// A mutation is visible to the next call of either kind, and the view
	// taken before it still shows the rows it was taken over.
	before := slices.Clone(v1.X)
	if err := tbl.Insert(make([]Value, len(tbl.Columns))); err != nil {
		t.Fatal(err)
	}
	if d := check("view after INSERT", nil, 0, true); d.NumRecords() != v1.NumRecords()+1 {
		t.Fatalf("view after INSERT has %d rows, want %d", d.NumRecords(), v1.NumRecords()+1)
	}
	check("gather after INSERT", iris, 0, false)
	if !slices.Equal(v1.X, before) {
		t.Fatal("an INSERT changed a view taken before it")
	}
}

// TestDatasetSnapshotForLimitBoundsConversion: @limit bounds what either path
// hands out — limit <= 0, limit == rows and limit > rows all mean every row —
// and every kind of mutation is seen by the next call while views taken
// before it keep the rows they were taken over.
func TestDatasetSnapshotForLimitBoundsConversion(t *testing.T) {
	tbl := wideTable(t, 2)
	iris := dataset.Iris().FeatureNames
	d := New()
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	type held struct {
		what    string
		x, want []float32
	}
	var views []held
	get := func(what string, features []string, limit, wantRows int) {
		t.Helper()
		got, hit, err := tbl.DatasetSnapshotFor(features, limit)
		if err != nil || hit != (features == nil) {
			t.Fatalf("%s: hit=%v err=%v", what, hit, err)
		}
		names := features
		if names == nil {
			names = tbl.realNames
		}
		if got.NumRecords() != wantRows || !slices.Equal(got.X, reference(tbl, names, limit)) {
			t.Fatalf("%s: %d rows (want %d), or cells differ from rows [0, %d) of the table",
				what, got.NumRecords(), wantRows, wantRows)
		}
		views = append(views, held{what, got.X, slices.Clone(got.X)})
	}
	for _, features := range [][]string{nil, iris} {
		rows := tbl.NumRows()
		get("limit 10", features, 10, 10)
		get("limit 0", features, 0, rows)
		get("limit -1", features, -1, rows)
		get("limit == rows", features, rows, rows)
		get("limit > rows", features, 1_000_000, rows)
	}
	for _, stmt := range []string{
		"INSERT INTO wide VALUES (9, 9, 9, 9, 9, 9, 9), (8, 8, 8, 8, 8, 8, 8)",
		"UPDATE wide SET junk_a = 5, sepal_width = 1 WHERE label = 1",
		"DELETE FROM wide WHERE label = 2",
	} {
		if _, _, err := d.Query(stmt); err != nil {
			t.Fatal(err)
		}
		for _, features := range [][]string{nil, iris} {
			get("limit 60 after "+stmt, features, 60, 60)
			get("limit 0 after "+stmt, features, 0, tbl.NumRows())
		}
	}
	for _, v := range views {
		if !slices.Equal(v.x, v.want) {
			t.Fatalf("%s: the dataset changed after it was returned", v.what)
		}
	}
}

// TestDatasetSnapshotForTableShapes: the layouts a block can take. An empty
// table and a table without REAL columns (the models table) have nothing to
// view but still count rows; REAL columns interleaved with BIGINT and TEXT
// ones land in the block in schema order.
func TestDatasetSnapshotForTableShapes(t *testing.T) {
	empty, err := NewTable("empty", []Column{{Name: "x", Type: Float32Col}, {Name: "n", Type: Int64Col}})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 5} {
		d, hit, err := empty.DatasetSnapshotFor(nil, limit)
		if err != nil || !hit || d.NumRecords() != 0 || d.NumFeatures() != 1 {
			t.Fatalf("empty table, limit %d: rows=%d hit=%v err=%v", limit, d.NumRecords(), hit, err)
		}
	}

	cat := New()
	for _, name := range []string{"a", "b", "c"} {
		if err := cat.StoreModelBlob(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	models, _ := cat.Table(ModelsTable)
	if _, _, err := models.DatasetSnapshotFor(nil, 0); err == nil {
		t.Fatal("a table without REAL columns has no scoring view")
	}
	if _, err := DatasetFromTable(models); err == nil {
		t.Fatal("a table without REAL columns converted to a dataset")
	}
	if err := cat.DeleteModel("b"); err != nil {
		t.Fatal(err)
	}
	if got := cat.ModelNames(); models.NumRows() != 2 || !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("models table has %d rows %v, want [a c]", models.NumRows(), got)
	}

	mixed, err := NewTable("mixed", []Column{
		{Name: "id", Type: Int64Col}, {Name: "x", Type: Float32Col}, {Name: "tag", Type: TextCol},
		{Name: "y", Type: Float32Col}, {Name: "raw", Type: BlobCol}, {Name: "z", Type: Float32Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 9; i++ {
		f := float32(i)
		rows = append(rows, []Value{Int(int64(i)), Float(f + .1), Text(fmt.Sprint("t", i)),
			Float(f + .2), Blob([]byte{byte(i)}), Float(f + .3)})
	}
	if err := mixed.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	d, hit, err := mixed.DatasetSnapshotFor(nil, 0)
	if err != nil || !hit || !slices.Equal(d.FeatureNames, []string{"x", "y", "z"}) {
		t.Fatalf("mixed: names=%v hit=%v err=%v", d.FeatureNames, hit, err)
	}
	if !slices.Equal(d.X, reference(mixed, d.FeatureNames, 0)) {
		t.Fatal("mixed: view differs from the cells")
	}
	g, hit, err := mixed.DatasetSnapshotFor([]string{"z", "x"}, 4)
	if err != nil || hit || !slices.Equal(g.X, reference(mixed, []string{"z", "x"}, 4)) {
		t.Fatalf("mixed: reordered gather wrong (hit=%v err=%v)", hit, err)
	}
	for r, row := range mixed.Rows() {
		if row[0].I != int64(r) || row[2].S != fmt.Sprint("t", r) || row[4].B[0] != byte(r) || row[5].F != float32(r)+.3 {
			t.Fatalf("mixed: row %d read back as %+v", r, row)
		}
	}
}

// TestTableBytesPerCell pins the two costs the block layout exists to remove.
// A 20 000 × 28 REAL + label table — one ingest_then_score events table —
// holds its cells in at most 6 bytes per REAL cell of live heap (a Value cell
// was 56), and a full-projection DatasetSnapshotFor allocates the dataset
// header and nothing else.
func TestTableBytesPerCell(t *testing.T) {
	const rows = 20000
	data := dataset.Higgs(rows, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := TableFromDataset("events", data)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	cells := float64(rows * data.NumFeatures())
	perCell := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / cells
	t.Logf("%.2f heap bytes per REAL cell", perCell)
	if perCell > 6 {
		t.Fatalf("table holds %.1f heap bytes per REAL cell, want <= 6", perCell)
	}

	view := func() {
		d, hit, err := tbl.DatasetSnapshotFor(data.FeatureNames, 0)
		if err != nil || !hit || d.NumRecords() != rows {
			t.Fatalf("rows=%d hit=%v err=%v", d.NumRecords(), hit, err)
		}
	}
	const calls = 100
	allocs := testing.AllocsPerRun(calls, view)
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		view()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; allocs > 1 || perCall >= 256 {
		t.Fatalf("a view costs %.0f allocations, %d bytes; want the dataset header alone (< 256 bytes)", allocs, perCall)
	}
	runtime.KeepAlive(tbl)
}

func TestDatasetSnapshotForErrors(t *testing.T) {
	tbl := wideTable(t, 1)
	if _, _, err := tbl.DatasetSnapshotFor([]string{"no_such_col"}, 0); err == nil {
		t.Fatal("missing column must error")
	}
	if _, _, err := tbl.DatasetSnapshotFor([]string{"label"}, 0); err == nil {
		t.Fatal("non-REAL feature column must error")
	}
	if _, _, err := tbl.DatasetSnapshotFor([]string{}, 0); err == nil {
		t.Fatal("empty projection must error")
	}
}

func TestNumericColumnPrefix(t *testing.T) {
	tbl := wideTable(t, 1)
	vals, err := tbl.NumericColumnPrefix("label", 5)
	if err != nil || len(vals) != 5 {
		t.Fatalf("label prefix: %v len=%d", err, len(vals))
	}
	iris := dataset.Iris()
	for i, v := range vals {
		if v != float64(iris.Y[i]) {
			t.Fatalf("label[%d] = %v, want %d", i, v, iris.Y[i])
		}
	}
	all, err := tbl.NumericColumnPrefix(iris.FeatureNames[0], 0)
	if err != nil || len(all) != tbl.NumRows() {
		t.Fatalf("full column: %v len=%d", err, len(all))
	}
	if _, err := tbl.NumericColumnPrefix("nope", 0); err == nil {
		t.Fatal("missing column must error")
	}
}

func TestParsePredictStmt(t *testing.T) {
	st, err := Parse(`SELECT prediction FROM PREDICT(@model = 'm', @data = 't', @backend = 'FPGA')
		WHERE petal_width < 1.5 AND label = 2`)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := st.(*PredictStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ps.Params["model"].S != "m" || ps.Params["data"].S != "t" || ps.Params["backend"].S != "FPGA" {
		t.Fatalf("params: %+v", ps.Params)
	}
	if len(ps.Columns) != 1 || ps.Columns[0] != "prediction" || len(ps.Where) != 2 {
		t.Fatalf("projection/where: %+v", ps)
	}

	st, err = Parse(`SELECT COUNT(*) FROM PREDICT(@model = 'm', @data = 't') WHERE x >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	ps = st.(*PredictStmt)
	if len(ps.Aggregates) != 1 || ps.Aggregates[0].Fn != AggCount || ps.GroupBy != "" {
		t.Fatalf("count: %+v", ps)
	}

	st, err = Parse(`SELECT prediction, COUNT(*) FROM PREDICT(@model = 'm', @data = 't') GROUP BY prediction`)
	if err != nil {
		t.Fatal(err)
	}
	ps = st.(*PredictStmt)
	if ps.GroupBy != "prediction" || len(ps.Columns) != 1 || len(ps.Aggregates) != 1 {
		t.Fatalf("group by: %+v", ps)
	}

	// A plain SELECT from a table named predict-like stays a SelectStmt.
	if st, err = Parse(`SELECT a FROM predictions`); err != nil {
		t.Fatal(err)
	} else if _, ok := st.(*SelectStmt); !ok {
		t.Fatalf("got %T", st)
	}

	for _, bad := range []string{
		`SELECT prediction FROM PREDICT()`,
		`SELECT TOP 3 prediction FROM PREDICT(@model = 'm', @data = 't')`,
		`SELECT prediction, COUNT(*) FROM PREDICT(@model = 'm', @data = 't')`,
		`SELECT prediction FROM PREDICT(@model = 'm' @data = 't')`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %s", bad)
		}
	}
}

func TestParseConditionList(t *testing.T) {
	conds, err := ParseConditionList("petal_width < 1.5 AND species = 'setosa'")
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != 2 || conds[0].Column != "petal_width" || conds[0].Op != "<" || conds[0].Value.N != 1.5 {
		t.Fatalf("conds: %+v", conds)
	}
	if !conds[1].Value.IsString || conds[1].Value.S != "setosa" {
		t.Fatalf("string literal: %+v", conds[1])
	}
	if got, err := ParseConditionList("  "); err != nil || got != nil {
		t.Fatalf("blank: %v %v", got, err)
	}
	for _, bad := range []string{"x", "x <", "x < 1 AND", "x < 1 OR y > 2", "x < 1 garbage"} {
		if _, err := ParseConditionList(bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
	if s := FormatConditions(conds); s != "petal_width < 1.5 AND species = 'setosa'" {
		t.Fatalf("format: %q", s)
	}
	round, err := ParseConditionList(FormatConditions(conds))
	if err != nil || len(round) != 2 {
		t.Fatalf("roundtrip: %v %v", round, err)
	}
}

// ingestFixture is ingest_then_score's write-then-read step: fresh builds one
// events table — 20 000 HIGGS rows × 28 REAL + label — in a catalog, and stmt
// is the 4-row INSERT the workload sends. fresh applies stmt 25 times, so the
// table has append's spare capacity as any table that has taken INSERTs does
// (a bulk load leaves under a page of it — 73 rows — and the INSERT that uses
// it up regrows the whole block: an amortized cost, not the statement's). The
// INSERT benchmarks call fresh every refill iterations, off the clock, so the
// table they measure stays within 25 % of 20 000 rows whatever b.N is.
func ingestFixture(b *testing.B) (fresh func() (*Database, *Table), data *dataset.Dataset, stmt *InsertStmt) {
	b.Helper()
	data = dataset.Higgs(20000, 1)
	stmt = &InsertStmt{Table: "events"}
	for r := 0; r < 4; r++ {
		row := make([]Literal, data.NumFeatures()+1)
		for c := range row {
			row[c] = Literal{N: float64(r + c)}
		}
		stmt.Rows = append(stmt.Rows, row)
	}
	fresh = func() (*Database, *Table) {
		tbl, err := TableFromDataset("events", data)
		if err != nil {
			b.Fatal(err)
		}
		d := New()
		if err := d.CreateTable(tbl); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if _, err := d.InsertRows(stmt); err != nil {
				b.Fatal(err)
			}
		}
		return d, tbl
	}
	return fresh, data, stmt
}

const refill = 1024

// BenchmarkDatasetSnapshotFor measures a scoring query's fetch on a 20 000 ×
// 28 table in the three regimes it has: after-insert is ingest_then_score's
// step (a 4-row InsertRows, then the full table), bounded is an @limit prefix,
// subset-gather a model that reads 8 of the 28 columns — the one regime that
// copies, on every call.
func BenchmarkDatasetSnapshotFor(b *testing.B) {
	fresh, data, stmt := ingestFixture(b)
	d, tbl := fresh()
	fetch := func(b *testing.B, features []string, limit, wantRows int) {
		ds, _, err := tbl.DatasetSnapshotFor(features, limit)
		if err != nil || ds.NumRecords() != wantRows {
			b.Fatalf("limit %d: rows=%d err=%v", limit, ds.NumRecords(), err)
		}
	}
	b.Run("after-insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%refill == refill-1 {
				b.StopTimer()
				d, tbl = fresh()
				b.StartTimer()
			}
			if _, err := d.InsertRows(stmt); err != nil {
				b.Fatal(err)
			}
			fetch(b, data.FeatureNames, 0, tbl.NumRows())
		}
	})
	d, tbl = fresh()
	rows := tbl.NumRows()
	b.Run("bounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fetch(b, data.FeatureNames, rows/4, rows/4)
		}
	})
	b.Run("subset-gather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fetch(b, data.FeatureNames[10:18], 0, rows)
		}
	})
}

// BenchmarkInsertRows measures the unjournaled write the same workload makes:
// one 4-row × 29-column INSERT statement appended to a 20 000-row table.
func BenchmarkInsertRows(b *testing.B) {
	b.Run("4x29-into-20k", func(b *testing.B) {
		fresh, _, stmt := ingestFixture(b)
		d, _ := fresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%refill == refill-1 {
				b.StopTimer()
				d, _ = fresh()
				b.StartTimer()
			}
			if _, err := d.InsertRows(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
