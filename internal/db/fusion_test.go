package db

import (
	"fmt"
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

func TestDatasetSnapshotForProjection(t *testing.T) {
	tbl := wideTable(t, 6)
	features := dataset.Iris().FeatureNames

	d, hit, err := tbl.DatasetSnapshotFor(features, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first conversion reported a cache hit")
	}
	if d.NumFeatures() != len(features) || d.NumRecords() != tbl.NumRows() {
		t.Fatalf("pruned snapshot shape %dx%d", d.NumRecords(), d.NumFeatures())
	}
	// Values must match the legacy full conversion's feature columns.
	full, err := tbl.DatasetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.NumRecords(); r++ {
		for j := range features {
			if d.X[r*len(features)+j] != full.X[r*full.NumFeatures()+j] {
				t.Fatalf("row %d feature %d differs from full conversion", r, j)
			}
		}
	}

	// Second call at the same version is a cache hit returning the shared
	// dataset.
	d2, hit, err := tbl.DatasetSnapshotFor(features, 0)
	if err != nil || !hit || d2 != d {
		t.Fatalf("expected shared cache hit, got hit=%v err=%v", hit, err)
	}

	// A different subset caches independently.
	sub, hit, err := tbl.DatasetSnapshotFor(features[:2], 0)
	if err != nil || hit || sub.NumFeatures() != 2 {
		t.Fatalf("subset: hit=%v err=%v features=%d", hit, err, sub.NumFeatures())
	}

	// Mutation invalidates.
	row := make([]Value, len(tbl.Columns))
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	_, hit, err = tbl.DatasetSnapshotFor(features, 0)
	if err != nil || hit {
		t.Fatalf("post-mutation call must miss, hit=%v err=%v", hit, err)
	}
}

// TestDatasetSnapshotForLimitBoundsConversion pins the prefix snapshot: a
// bounded conversion is published like a full one, serves every later call
// it covers, and within one version only ever gives way to an entry that
// covers more rows; any mutation strands it.
func TestDatasetSnapshotForLimitBoundsConversion(t *testing.T) {
	tbl := wideTable(t, 2)
	features := dataset.Iris().FeatureNames
	d := New()
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	// get runs one call and checks the rows it returns against an uncached
	// conversion of the table as it stands.
	get := func(what string, limit int, wantHit bool) *dataset.Dataset {
		t.Helper()
		got, hit, err := tbl.DatasetSnapshotFor(features, limit)
		if err != nil || hit != wantHit {
			t.Fatalf("%s: hit=%v (want %v) err=%v", what, hit, wantHit, err)
		}
		want, err := tbl.DatasetFor(features, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.X, want.X) {
			t.Fatalf("%s: returned cells differ from rows [0, %d) of the table", what, want.NumRecords())
		}
		return got
	}

	// Cold: only limit rows convert, and they are published.
	p10 := get("cold limit 10", 10, false)
	if p10.NumRecords() != 10 {
		t.Fatalf("limited snapshot has %d rows", p10.NumRecords())
	}
	if again := get("second limit 10", 10, true); again != p10 {
		t.Fatal("a bounded call the cached prefix covers exactly must return the cached dataset")
	}
	// Fewer rows: a hit, served as a copy of the prefix's head.
	if head := get("limit 7 under a 10-row prefix", 7, true); &head.X[0] == &p10.X[0] {
		t.Fatal("Head of the cached prefix must be a copy")
	}
	// More rows: a miss that re-converts and replaces the entry.
	p40 := get("limit 40 over a 10-row prefix", 40, false)
	get("limit 40 again", 40, true)
	if again := get("limit 10 under the 40-row prefix", 10, true); again == p10 {
		t.Fatal("the 10-row prefix should have been replaced by the 40-row one")
	}
	// The whole table, asked for three ways: limit 0 converts and publishes
	// a full entry; limit >= rows and limit == rows are then hits on it.
	full := get("limit 0 over a prefix", 0, false)
	if full.NumRecords() != tbl.NumRows() {
		t.Fatalf("full snapshot has %d rows", full.NumRecords())
	}
	for _, limit := range []int{0, tbl.NumRows(), 1_000_000} {
		if again := get(fmt.Sprintf("limit %d under the full entry", limit), limit, true); again != full {
			t.Fatalf("limit %d: the full entry must be returned itself", limit)
		}
	}
	get("limit 40 under the full entry", 40, true)
	// A prefix never replaces a full entry of the same version: after the
	// bounded hits above the full entry is still what a full call gets.
	if again := get("limit 0 after bounded hits", 0, true); again != full || p40 == full {
		t.Fatal("a bounded call displaced the full entry")
	}

	// Every kind of mutation strands whatever is cached, prefix or full: the
	// next call of any shape misses and sees the new rows (get compares with
	// the table as it stands).
	for _, stmt := range []string{
		"INSERT INTO wide VALUES (9, 9, 9, 9, 9, 9, 9)",
		"UPDATE wide SET junk_a = 5 WHERE label = 1",
		"DELETE FROM wide WHERE label = 2",
	} {
		if _, _, err := d.Query(stmt); err != nil {
			t.Fatal(err)
		}
		get("limit 60 after "+stmt, 60, false)
		get("limit 60 again after "+stmt, 60, true)
		get("limit 20 after "+stmt, 20, true)
		if err := tbl.Insert(make([]Value, len(tbl.Columns))); err != nil {
			t.Fatal(err)
		}
		get("limit 20 over a stranded 60-row prefix, "+stmt, 20, false)
		// limit >= rows on a cold cache converts everything and publishes a
		// full entry.
		clamped := get("limit >= rows after "+stmt, 1_000_000, false)
		if again := get("limit 0 after "+stmt, 0, true); again != clamped {
			t.Fatalf("%s: a clamped conversion must be published as the full entry", stmt)
		}
	}
}

// TestSubsetCacheIsBounded: maxSubSnapshots bounds the cache when every entry
// is current too — distinct projections of a table nobody writes to.
func TestSubsetCacheIsBounded(t *testing.T) {
	tbl := wideTable(t, 6)
	var names []string
	for _, c := range tbl.Columns {
		if c.Type == Float32Col {
			names = append(names, c.Name)
		}
	}
	projections := 0
	for i := 0; i < len(names) && projections < 20; i++ {
		for j := i + 1; j < len(names) && projections < 20; j++ {
			projections++
			features := []string{names[j], names[i]}
			for _, limit := range []int{0, 25} {
				got, _, err := tbl.DatasetSnapshotFor(features, limit)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tbl.DatasetFor(features, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.X, want.X) {
					t.Fatalf("projection %v limit %d: wrong cells", features, limit)
				}
			}
			if n := len(tbl.subSnaps); n > maxSubSnapshots {
				t.Fatalf("%d projections of an unmodified table left %d entries resident, bound is %d",
					projections, n, maxSubSnapshots)
			}
		}
	}
	if projections != 20 || len(tbl.subSnaps) != maxSubSnapshots {
		t.Fatalf("ran %d projections, %d resident; want 20 and a full cache of %d",
			projections, len(tbl.subSnaps), maxSubSnapshots)
	}
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

// BenchmarkDatasetSnapshotFor measures scan_fused's fetch — 20 000 of 50 000
// HIGGS rows × 28 columns — on the three paths a call can take: bounded-cold
// converts the prefix (the table version moves between iterations, as after
// an INSERT), bounded-warm is served the published prefix, full-warm the
// published full table.
func BenchmarkDatasetSnapshotFor(b *testing.B) {
	const rows, limit = 50000, 20000
	data := dataset.Higgs(rows, 1)
	tbl, err := TableFromDataset("higgs", data)
	if err != nil {
		b.Fatal(err)
	}
	fetch := func(b *testing.B, limit int) {
		d, _, err := tbl.DatasetSnapshotFor(data.FeatureNames, limit)
		if err != nil || d.NumRecords() != limit {
			b.Fatalf("limit %d: rows=%d err=%v", limit, d.NumRecords(), err)
		}
	}
	b.Run("bounded-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.version.Add(1)
			fetch(b, limit)
		}
	})
	for _, warm := range []struct {
		name  string
		limit int
	}{{"bounded-warm", limit}, {"full-warm", rows}} {
		b.Run(warm.name, func(b *testing.B) {
			fetch(b, warm.limit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(b, warm.limit)
			}
		})
	}
}
