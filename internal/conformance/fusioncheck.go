package conformance

import (
	"fmt"
	"math"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/kernel"
	"accelscore/internal/pipeline"
	"accelscore/internal/tensor"
)

// fusedChecks verifies the operator-fusion metamorphic invariants on one
// engine:
//
//   - scoring with a pushed-down selection is bit-identical to scoring every
//     row and filtering afterwards, for selective, empty and all-rows
//     predicates — including rows carrying NaN/Inf feature values (NaN
//     comparisons are false, so NaN rows fall out of any predicate over
//     their column, exactly like the DBMS's WHERE);
//   - a fused score-then-aggregate request returns the same class histogram
//     as aggregating the materialized filtered predictions, whether the
//     engine honors WantCounts in the kernel or the caller tallies.
func (r *Runner) fusedChecks(rep *Report, c Case, eng backend.Backend) {
	name := eng.Name()
	data := withNonFiniteRows(c.Data.Head(min(metaRows, c.Data.NumRecords())))
	n := data.NumRecords()

	base, err := eng.Score(&backend.Request{Forest: c.Forest, Data: data})
	if err != nil {
		rep.skip(c.Name, name, "fused-filter", err.Error())
		return
	}

	// Predicate shapes: a selective cut on the NaN/Inf-bearing column, a cut
	// on a finite column (so non-finite rows are *selected* and traversed by
	// both paths), an empty predicate, and an all-rows predicate.
	mid := finiteMidpoint(data, 0)
	preds := []struct {
		label string
		pred  kernel.Predicate
	}{
		{"selective", kernel.Predicate{Feature: 0, Op: kernel.PredLT, Value: mid}},
		{"finite-col", kernel.Predicate{Feature: 1 % data.NumFeatures(), Op: kernel.PredGE, Value: finiteMidpoint(data, 1%data.NumFeatures())}},
		{"empty", kernel.Predicate{Feature: 0, Op: kernel.PredLT, Value: math.Inf(-1)}},
		{"all", kernel.Predicate{Feature: 1 % data.NumFeatures(), Op: kernel.PredGE, Value: -math.MaxFloat64}},
	}

	filterOK := true
	var aggSel *kernel.Selection
	var aggWant []int
	for _, pc := range preds {
		sel := kernel.BuildSelection(n, []kernel.Predicate{pc.pred}, data.X, data.NumFeatures())
		fused, err := eng.Score(&backend.Request{Forest: c.Forest, Data: data, Sel: sel})
		if err != nil {
			rep.fail(c.Name, name, "fused-filter",
				fmt.Sprintf("%s predicate: %v", pc.label, err))
			filterOK = false
			break
		}
		want := make([]int, 0, sel.Count())
		for i := 0; i < n; i++ {
			if sel.Selected(i) {
				want = append(want, base.Predictions[i])
			}
		}
		if d := firstDiff(fused.Predictions, want); d >= 0 {
			rep.fail(c.Name, name, "fused-filter",
				fmt.Sprintf("%s predicate, dense row %d: fused %d, score-then-filter %d",
					pc.label, d, at(fused.Predictions, d), at(want, d)))
			filterOK = false
			break
		}
		if pc.label == "selective" {
			aggSel, aggWant = sel, want
		}
	}
	if filterOK {
		rep.pass(c.Name, name, "fused-filter")
	}
	if aggSel == nil {
		return
	}

	// Fused aggregate: with or without kernel support, the histogram must
	// equal aggregating the materialized filtered predictions.
	res, err := eng.Score(&backend.Request{Forest: c.Forest, Data: data, Sel: aggSel, WantCounts: true})
	if err != nil {
		rep.fail(c.Name, name, "fused-aggregate", err.Error())
		return
	}
	counts := res.ClassCounts
	if counts == nil {
		counts = tensor.Bincount(res.Predictions, 0)
	}
	want := tensor.Bincount(aggWant, len(counts))
	for class := range counts {
		w := int64(0)
		if class < len(want) {
			w = want[class]
		}
		if counts[class] != w {
			rep.fail(c.Name, name, "fused-aggregate",
				fmt.Sprintf("class %d: fused count %d, materialized count %d", class, counts[class], w))
			return
		}
	}
	var total, wantTotal int64
	for _, v := range counts {
		total += v
	}
	for _, v := range want {
		wantTotal += v
	}
	if total != wantTotal {
		rep.fail(c.Name, name, "fused-aggregate",
			fmt.Sprintf("histogram totals %d, filtered rows %d", total, wantTotal))
		return
	}
	rep.pass(c.Name, name, "fused-aggregate")
}

// fusedPipelineChecks drives the fused SQL forms end to end for one case and
// every engine: EXEC ... @where must equal post-filtering the oracle, and
// the PREDICT aggregate forms must equal aggregating the materialized
// prediction column.
func (r *Runner) fusedPipelineChecks(rep *Report, c Case, ref *Reference) {
	database := db.New()
	tbl, err := db.TableFromDataset("scoring_input", c.Data)
	if err != nil {
		rep.fail(c.Name, "", "fused-pipeline-setup", err.Error())
		return
	}
	if err := database.CreateTable(tbl); err != nil {
		rep.fail(c.Name, "", "fused-pipeline-setup", err.Error())
		return
	}
	if err := database.StoreModelBlob("m", c.Blob); err != nil {
		rep.fail(c.Name, "", "fused-pipeline-setup", err.Error())
		return
	}
	reg := backend.NewRegistry()
	for _, eng := range r.Engines {
		if err := reg.Register(eng); err != nil {
			rep.fail(c.Name, eng.Name(), "fused-pipeline-setup", err.Error())
			return
		}
	}

	col := c.Data.FeatureNames[0]
	cut := finiteMidpoint(c.Data, 0)
	var want []int
	for i := 0; i < c.Data.NumRecords(); i++ {
		if float64(c.Data.Row(i)[0]) < cut {
			want = append(want, ref.Predictions[i])
		}
	}
	wantHist := tensor.Bincount(ref.Predictions, 0)

	for _, eng := range r.Engines {
		name := eng.Name()
		p := &pipeline.Pipeline{
			DB:       database,
			Runtime:  r.Runtime,
			Registry: reg,
			Cache:    pipeline.NewModelCache(4),
		}

		res, err := p.ExecQuery(fmt.Sprintf(
			"EXEC sp_score_model @model = 'm', @data = 'scoring_input', @backend = '%s', @where = '%s < %g'",
			name, col, cut))
		switch {
		case err != nil:
			rep.skip(c.Name, name, "fused-pipeline-where", err.Error())
			continue
		case firstDiff(res.Predictions, want) >= 0:
			d := firstDiff(res.Predictions, want)
			rep.fail(c.Name, name, "fused-pipeline-where",
				fmt.Sprintf("dense row %d: fused %d, score-then-filter %d", d, at(res.Predictions, d), at(want, d)))
		case res.RowsScored != len(want) || res.Table.NumRows() != len(want):
			rep.fail(c.Name, name, "fused-pipeline-where",
				fmt.Sprintf("scored %d rows, table has %d, want %d", res.RowsScored, res.Table.NumRows(), len(want)))
		default:
			rep.pass(c.Name, name, "fused-pipeline-where")
		}

		agg, err := p.ExecQuery(fmt.Sprintf(
			"SELECT prediction, COUNT(*) FROM PREDICT(@model = 'm', @data = 'scoring_input', @backend = '%s') GROUP BY prediction",
			name))
		if err != nil {
			rep.fail(c.Name, name, "fused-pipeline-aggregate", err.Error())
			continue
		}
		ok := true
		var total int64
		for row := 0; row < agg.Table.NumRows(); row++ {
			class, count := agg.Table.Cell(row, 0).I, agg.Table.Cell(row, 1).I
			total += count
			if class < 0 || class >= int64(len(wantHist)) || wantHist[class] != count {
				rep.fail(c.Name, name, "fused-pipeline-aggregate",
					fmt.Sprintf("class %d: fused count %d disagrees with materialized histogram", class, count))
				ok = false
				break
			}
		}
		if ok && total != int64(len(ref.Predictions)) {
			rep.fail(c.Name, name, "fused-pipeline-aggregate",
				fmt.Sprintf("histogram totals %d of %d rows", total, len(ref.Predictions)))
			ok = false
		}
		if ok {
			rep.pass(c.Name, name, "fused-pipeline-aggregate")
		}
	}
}

// withNonFiniteRows appends rows whose first feature is NaN, +Inf and -Inf
// (remaining features copied from row 0): predicate semantics over them must
// match the DBMS's (NaN never compares true).
func withNonFiniteRows(d *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{
		Name:         d.Name + "_nonfinite",
		FeatureNames: append([]string(nil), d.FeatureNames...),
		ClassNames:   append([]string(nil), d.ClassNames...),
		X:            append([]float32(nil), d.X...),
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		row := append([]float32(nil), d.Row(0)...)
		row[0] = v
		out.X = append(out.X, row...)
	}
	return out
}

// finiteMidpoint returns the midpoint of the finite value range of one
// feature column — a predicate threshold that splits real data without
// tripping over probe rows.
func finiteMidpoint(d *dataset.Dataset, feature int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	f := d.NumFeatures()
	for i := 0; i < d.NumRecords(); i++ {
		v := float64(d.X[i*f+feature])
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e29 {
			continue // skip probe magnitudes; they'd swamp the midpoint
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0
	}
	return (lo + hi) / 2
}

// at indexes s, returning -1 past the end (for mismatch messages where one
// side is shorter).
func at(s []int, i int) int {
	if i >= len(s) {
		return -1
	}
	return s[i]
}
