// Query/operator fusion: the planning half of the fused scoring path. A
// scoring query may carry a pushed-down WHERE (rows are filtered inside the
// kernel's traversal loop, before any tree is walked), a projection implied
// by the model's feature names (only those columns leave the column store),
// and a terminal aggregation (COUNT(*) / GROUP BY prediction) that never
// materializes the prediction column. This file lowers the SQL forms onto
// the kernel primitives; pipeline.go executes the plan.
package pipeline

import (
	"fmt"
	"slices"
	"strings"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/kernel"
	"accelscore/internal/tensor"
)

// AggMode is the fused aggregation a scoring query requests.
type AggMode int

const (
	// AggNone returns the prediction column (the classic result shape).
	AggNone AggMode = iota
	// AggCount returns a single COUNT(*) of the scored rows.
	AggCount
	// AggGroupCount returns (prediction, COUNT(*)) per predicted class.
	AggGroupCount
)

// String names the mode for metrics labels and trace attributes.
func (m AggMode) String() string {
	switch m {
	case AggCount:
		return "count"
	case AggGroupCount:
		return "group_count"
	default:
		return "none"
	}
}

// Fused reports whether the request engages any fusion (filter or
// aggregation) beyond plain scoring.
func (r *ScoreRequest) Fused() bool { return len(r.Where) > 0 || r.Agg != AggNone }

// validateWhere checks that every pushed-down conjunct is executable inside
// the scoring kernel: a numeric comparison with a known operator. String
// comparisons stay in the DBMS's SELECT path.
func validateWhere(conds []db.Condition) error {
	for _, c := range conds {
		if c.Value.IsString {
			return fmt.Errorf("pipeline: fused WHERE on %q: only numeric comparisons can be pushed into scoring", c.Column)
		}
		if _, err := kernel.ParsePredOp(c.Op); err != nil {
			return fmt.Errorf("pipeline: fused WHERE on %q: %v", c.Column, err)
		}
	}
	return nil
}

// ParsePredictStmt validates a SELECT ... FROM PREDICT(...) statement and
// returns the fused scoring request it describes: the PREDICT() arguments
// become sp_score_model parameters, the WHERE clause is pushed down, and the
// projection picks the result shape (prediction column, COUNT(*), or
// GROUP BY prediction).
func ParsePredictStmt(ps *db.PredictStmt) (*ScoreRequest, error) {
	req, err := scoreParamsFromMap(ps.Params, false)
	if err != nil {
		return nil, err
	}
	if err := validateWhere(ps.Where); err != nil {
		return nil, err
	}
	req.Where = ps.Where
	for _, col := range ps.Columns {
		if !strings.EqualFold(col, "prediction") {
			return nil, fmt.Errorf("pipeline: PREDICT exposes only the %q column, not %q", "prediction", col)
		}
	}
	for _, a := range ps.Aggregates {
		if a.Fn != db.AggCount {
			return nil, fmt.Errorf("pipeline: PREDICT supports only COUNT(*) aggregation, not %s", a.Fn)
		}
	}
	switch {
	case ps.GroupBy != "":
		if !strings.EqualFold(ps.GroupBy, "prediction") {
			return nil, fmt.Errorf("pipeline: PREDICT can only GROUP BY prediction, not %q", ps.GroupBy)
		}
		req.Agg = AggGroupCount
	case len(ps.Aggregates) > 0:
		req.Agg = AggCount
	}
	return req, nil
}

// projectionFor decides the column subset to convert for scoring with f on
// tbl. Projection engages only when every model feature resolves to a REAL
// column and the features appear in the table's schema order — then the
// pruned conversion is value-identical to the legacy full conversion's
// feature prefix. Any mismatch falls back to the legacy positional
// conversion (nil = all REAL columns), keeping pre-fusion behavior
// bit-for-bit.
func projectionFor(tbl *db.Table, featureNames []string) []string {
	if len(featureNames) == 0 {
		return nil
	}
	last := -1
	for _, name := range featureNames {
		ci := tbl.ColumnIndex(name)
		if ci <= last || tbl.Columns[ci].Type != db.Float32Col {
			return nil
		}
		last = ci
	}
	return featureNames
}

// buildPredicates lowers the query's WHERE conjuncts onto its dataset. A
// conjunct over a model feature streams straight from the row during
// traversal (no separate column pass at all); a conjunct over any other
// numeric column of tbl gathers that column, bounded by the same row count as
// the scoring input.
func buildPredicates(tbl *db.Table, data *dataset.Dataset, where []db.Condition) ([]kernel.Predicate, error) {
	want := data.NumRecords()
	preds := make([]kernel.Predicate, 0, len(where))
	for _, c := range where {
		op, err := kernel.ParsePredOp(c.Op)
		if err != nil {
			return nil, fmt.Errorf("pipeline: fused WHERE on %q: %v", c.Column, err)
		}
		if c.Value.IsString {
			return nil, fmt.Errorf("pipeline: fused WHERE on %q: only numeric comparisons can be pushed into scoring", c.Column)
		}
		if feat := slices.Index(data.FeatureNames, c.Column); feat >= 0 {
			preds = append(preds, kernel.Predicate{Feature: feat, Op: op, Value: c.Value.N})
			continue
		}
		col, err := tbl.NumericColumnPrefix(c.Column, want)
		if err != nil {
			return nil, fmt.Errorf("pipeline: fused WHERE: %v", err)
		}
		if len(col) != want {
			return nil, fmt.Errorf("pipeline: fused WHERE on %q: table %q shrank during the scan", c.Column, tbl.Name)
		}
		preds = append(preds, kernel.Predicate{Feature: -1, Col: col, Op: op, Value: c.Value.N})
	}
	return preds, nil
}

// aggResult assembles a fused-aggregate result table. counts is the engine's
// fused class histogram when it produced one (WantCounts path); otherwise
// preds is the materialized prediction slice and the histogram is computed
// here with the batch primitive.
func aggResult(mode AggMode, preds []int, counts []int64) (*db.Table, error) {
	if counts == nil {
		counts = tensor.Bincount(preds, 0)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	switch mode {
	case AggCount:
		out, err := db.NewTable("result", []db.Column{{Name: "count", Type: db.Int64Col}})
		if err != nil {
			return nil, err
		}
		return out, out.Insert([]db.Value{db.Int(total)})
	case AggGroupCount:
		out, err := db.NewTable("result", []db.Column{
			{Name: "prediction", Type: db.Int64Col},
			{Name: "count", Type: db.Int64Col},
		})
		if err != nil {
			return nil, err
		}
		for class, c := range counts {
			if c == 0 {
				continue
			}
			if err := out.Insert([]db.Value{db.Int(int64(class)), db.Int(c)}); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pipeline: aggResult on mode %s", mode)
	}
}

// AggTable assembles a fused-aggregate result table from merged predictions
// or a merged class histogram — aggResult exported for the scale-out
// router, whose gather path rebuilds the single-node result shape from
// per-shard pieces.
func AggTable(mode AggMode, preds []int, counts []int64) (*db.Table, error) {
	return aggResult(mode, preds, counts)
}
