package pipeline_test

import (
	"fmt"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/pipeline"
)

// newFusionPipeline is newPipeline plus a wide variant of the iris table:
// the four feature columns, then junk REAL columns, then the label column,
// so projection pruning and non-feature predicates both have something to
// chew on.
func newFusionPipeline(t testing.TB, rows int) (*pipeline.Pipeline, *forest.Forest, *dataset.Dataset) {
	t.Helper()
	p, f, data := newPipeline(t, 8, 10, rows)
	wide, err := db.NewTable("iris_wide", append(
		func() []db.Column {
			var cols []db.Column
			for _, name := range data.FeatureNames {
				cols = append(cols, db.Column{Name: name, Type: db.Float32Col})
			}
			return cols
		}(),
		db.Column{Name: "junk_a", Type: db.Float32Col},
		db.Column{Name: "junk_b", Type: db.Float32Col},
		db.Column{Name: "label", Type: db.Int64Col},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.NumRecords(); i++ {
		row := make([]db.Value, 0, data.NumFeatures()+3)
		for _, v := range data.Row(i) {
			row = append(row, db.Float(v))
		}
		row = append(row, db.Float(float32(i)), db.Float(float32(-i)), db.Int(int64(data.Y[i])))
		if err := wide.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DB.CreateTable(wide); err != nil {
		t.Fatal(err)
	}
	return p, f, data
}

// postFiltered computes the reference result: score every row, then filter.
func postFiltered(f *forest.Forest, data *dataset.Dataset, keep func(i int) bool) []int {
	var out []int
	for i := 0; i < data.NumRecords(); i++ {
		if keep(i) {
			out = append(out, f.PredictClass(data.Row(i)))
		}
	}
	return out
}

func TestFusedWhereMatchesPostFilter(t *testing.T) {
	p, f, data := newFusionPipeline(t, 300)
	featIdx := 3 // petal_width
	want := postFiltered(f, data, func(i int) bool {
		return float64(data.Row(i)[featIdx]) < 1.5
	})
	// GPU_RAPIDS is binary-only and is exercised by the conformance suite.
	for _, be := range []string{"CPU_SKLearn", "CPU_ONNX", "GPU_HB", "FPGA"} {
		q := fmt.Sprintf("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='%s', @where='%s < 1.5'",
			be, data.FeatureNames[featIdx])
		res, err := p.ExecQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if !res.Fused {
			t.Fatalf("%s: result not marked fused", be)
		}
		if res.RowsScanned != data.NumRecords() || res.RowsScored != len(want) {
			t.Fatalf("%s: scanned=%d scored=%d, want %d/%d",
				be, res.RowsScanned, res.RowsScored, data.NumRecords(), len(want))
		}
		if len(res.Predictions) != len(want) {
			t.Fatalf("%s: %d predictions, want %d", be, len(res.Predictions), len(want))
		}
		for i := range want {
			if res.Predictions[i] != want[i] {
				t.Fatalf("%s: prediction %d differs from score-then-filter", be, i)
			}
		}
		if res.Table.NumRows() != len(want) {
			t.Fatalf("%s: table rows = %d", be, res.Table.NumRows())
		}
	}
}

func TestFusedWhereOnNonFeatureColumn(t *testing.T) {
	p, f, data := newFusionPipeline(t, 300)
	// label and junk_a are not model features: the predicate column is
	// gathered separately and pushed down alongside.
	res, err := p.ExecQuery(
		"EXEC sp_score_model @model='iris_rf', @data='iris_wide', @backend='CPU_SKLearn', @where='label = 2 AND junk_a < 200'")
	if err != nil {
		t.Fatal(err)
	}
	want := postFiltered(f, data, func(i int) bool { return data.Y[i] == 2 && float64(i) < 200 })
	if len(res.Predictions) != len(want) {
		t.Fatalf("%d predictions, want %d", len(res.Predictions), len(want))
	}
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("prediction %d differs", i)
		}
	}
}

func TestFusedEmptyResult(t *testing.T) {
	p, _, _ := newFusionPipeline(t, 128)
	res, err := p.ExecQuery(
		"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA', @where='sepal_length < -1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 0 || res.Table.NumRows() != 0 || res.RowsScored != 0 {
		t.Fatalf("empty predicate returned %d rows", res.Table.NumRows())
	}
}

func TestFusedLimitBoundsScan(t *testing.T) {
	p, f, data := newFusionPipeline(t, 500)
	res, err := p.ExecQuery(
		"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn', @limit=100, @where='petal_width < 1.5'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 100 {
		t.Fatalf("scanned %d rows, @limit=100 must bound the scan", res.RowsScanned)
	}
	want := postFiltered(f, data.Head(100), func(i int) bool {
		return float64(data.Row(i)[3]) < 1.5
	})
	if len(res.Predictions) != len(want) {
		t.Fatalf("%d predictions, want %d", len(res.Predictions), len(want))
	}
}

func TestPredictStatementShapes(t *testing.T) {
	p, f, data := newFusionPipeline(t, 300)

	// Plain projection: the prediction column.
	res, err := p.ExecQuery(
		"SELECT prediction FROM PREDICT(@model='iris_rf', @data='iris', @backend='FPGA') WHERE petal_width >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := postFiltered(f, data, func(i int) bool { return float64(data.Row(i)[3]) >= 1.5 })
	if len(res.Predictions) != len(want) {
		t.Fatalf("predict stmt: %d predictions, want %d", len(res.Predictions), len(want))
	}

	// COUNT(*) never materializes predictions.
	res, err = p.ExecQuery(
		"SELECT COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_SKLearn') WHERE petal_width >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions != nil {
		t.Fatal("fused COUNT(*) materialized predictions")
	}
	if got := res.Table.Cell(0, 0).I; got != int64(len(want)) {
		t.Fatalf("COUNT(*) = %d, want %d", got, len(want))
	}

	// GROUP BY prediction equals aggregating the materialized predictions.
	res, err = p.ExecQuery(
		"SELECT prediction, COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_SKLearn') GROUP BY prediction")
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := map[int64]int64{}
	for i := 0; i < data.NumRecords(); i++ {
		wantCounts[int64(f.PredictClass(data.Row(i)))]++
	}
	if res.Table.NumRows() != len(wantCounts) {
		t.Fatalf("GROUP BY rows = %d, want %d", res.Table.NumRows(), len(wantCounts))
	}
	prev := int64(-1)
	for r := 0; r < res.Table.NumRows(); r++ {
		class, count := res.Table.Cell(r, 0).I, res.Table.Cell(r, 1).I
		if class <= prev {
			t.Fatalf("GROUP BY classes not ascending at row %d", r)
		}
		prev = class
		if wantCounts[class] != count {
			t.Fatalf("class %d count = %d, want %d", class, count, wantCounts[class])
		}
	}
}

// Fused aggregation must agree between engines that compute counts in the
// kernel (CPU engines, WantCounts) and engines that fall back to counting
// materialized predictions.
func TestFusedAggregateConsistentAcrossEngines(t *testing.T) {
	p, _, _ := newFusionPipeline(t, 257)
	var ref map[int64]int64
	for _, be := range []string{"CPU_SKLearn", "CPU_ONNX", "GPU_HB", "FPGA"} {
		q := fmt.Sprintf(
			"SELECT prediction, COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='%s') WHERE sepal_length > 5 GROUP BY prediction", be)
		res, err := p.ExecQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		got := map[int64]int64{}
		for r := 0; r < res.Table.NumRows(); r++ {
			got[res.Table.Cell(r, 0).I] = res.Table.Cell(r, 1).I
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d classes, ref has %d", be, len(got), len(ref))
		}
		for class, count := range ref {
			if got[class] != count {
				t.Fatalf("%s: class %d count %d != ref %d", be, class, got[class], count)
			}
		}
	}
}

func TestParsePredictStmtValidation(t *testing.T) {
	for _, bad := range []string{
		"SELECT species FROM PREDICT(@model='m', @data='t')",
		"SELECT prediction FROM PREDICT(@model='m', @data='t') WHERE species = 'setosa'",
		"SELECT prediction, COUNT(*) FROM PREDICT(@model='m', @data='t') GROUP BY species",
		"SELECT prediction FROM PREDICT(@model='m', @data='t', @where='x < 1')",
	} {
		st, err := db.Parse(bad)
		if err != nil {
			continue // parser-level rejection is fine too
		}
		if _, err := pipeline.ParsePredictStmt(st.(*db.PredictStmt)); err == nil {
			t.Fatalf("expected validation error for %s", bad)
		}
	}
}

func TestProjectionPrunedSnapshotScoresIdentically(t *testing.T) {
	p, f, data := newFusionPipeline(t, 300)
	// iris_wide has junk columns; the model's 4 features must still land on
	// the right columns via name-based projection.
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris_wide', @backend='CPU_SKLearn'")
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(data)
	if len(res.Predictions) != len(want) {
		t.Fatalf("%d predictions", len(res.Predictions))
	}
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("prediction %d differs on the wide table", i)
		}
	}
}

func TestFusedWithCacheEnabled(t *testing.T) {
	p, f, data := newFusionPipeline(t, 300)
	p.Cache = pipeline.NewModelCache(4)
	want := postFiltered(f, data, func(i int) bool { return float64(data.Row(i)[3]) < 1.5 })
	for round := 0; round < 2; round++ {
		res, err := p.ExecQuery(
			"EXEC sp_score_model @model='iris_rf', @data='iris_wide', @backend='CPU_SKLearn', @where='petal_width < 1.5'")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Predictions) != len(want) {
			t.Fatalf("round %d: %d predictions, want %d", round, len(res.Predictions), len(want))
		}
		for i := range want {
			if res.Predictions[i] != want[i] {
				t.Fatalf("round %d: prediction %d differs", round, i)
			}
		}
		if round == 1 && !res.CacheHit {
			t.Fatal("second fused query missed the model cache")
		}
	}
}

func TestTimeoutParamStillWorks(t *testing.T) {
	p, _, _ := newFusionPipeline(t, 100)
	res, err := p.ExecQuery(
		"SELECT COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_SKLearn', @timeout='5s')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Cell(0, 0).I != 100 {
		t.Fatalf("COUNT(*) = %d", res.Table.Cell(0, 0).I)
	}
}
