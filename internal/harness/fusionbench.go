// Fusion benchmark: fused scoring (WHERE pushed into the kernel, projected
// inputs) against the pre-fusion client flow (score every row, filter the
// materialized predictions afterwards) over a selectivity x table-width
// matrix.
//
// Both sides run through the same pipeline with the caches off, so every
// query pays its own table->dataset conversion and model deserialization —
// the per-invocation pre-processing regime the paper's Fig. 11 breakdown
// charges to every scoring call. The unfused baseline issues the same
// statement without @where and filters the returned predictions in the
// harness, exactly as a pre-fusion client had to.
//
// Projection pruning is measured separately, as a conversion microbenchmark
// per table (db.Table.DatasetFor: a copy of the row-major block full-width, a
// gather of the feature columns pruned): the full-width dataset cannot even
// feed the engines when the table carries non-feature REAL columns (they
// validate the feature count), so its cost is compared to the pruned
// conversion directly rather than through a query that would be rejected.
package harness

import (
	"fmt"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/tensor"
)

// FusionBenchConfig parameterizes the matrix. The zero value gets defaults
// from RunFusionBench.
type FusionBenchConfig struct {
	// Rows sizes the scoring input tables.
	Rows int `json:"rows"`
	// Trees and Depth shape the model.
	Trees int `json:"trees"`
	Depth int `json:"depth"`
	// Seed makes training deterministic.
	Seed uint64 `json:"seed"`
	// Repeats is the measured repetitions per cell; the nearest-rank median
	// is reported.
	Repeats int `json:"repeats"`
	// Selectivities are the WHERE pass fractions.
	Selectivities []float64 `json:"selectivities"`
	// JunkCols is how many non-feature REAL columns pad the wide table.
	JunkCols int `json:"junk_cols"`
	// Backend is the engine under test.
	Backend string `json:"backend"`
}

// FusionCell is one (table, selectivity) measurement.
type FusionCell struct {
	Table       string  `json:"table"`
	RealColumns int     `json:"real_columns"`
	Selectivity float64 `json:"selectivity"`
	RowsScanned int     `json:"rows_scanned"`
	RowsScored  int     `json:"rows_scored"`
	// Median wall time per query, fused vs unfused (score-all + post-filter).
	FusedNS   int64 `json:"fused_ns"`
	UnfusedNS int64 `json:"unfused_ns"`
	// Median simulated end-to-end timeline totals for the same queries.
	FusedSimNS   int64 `json:"fused_sim_ns"`
	UnfusedSimNS int64 `json:"unfused_sim_ns"`
	// Speedup is UnfusedNS / FusedNS (measured wall time).
	Speedup float64 `json:"speedup"`
}

// FusionTableStat is the projection-pruning microbenchmark for one table:
// the cost of converting every REAL column versus only the model's features.
type FusionTableStat struct {
	Table       string `json:"table"`
	RealColumns int    `json:"real_columns"`
	FeatureCols int    `json:"feature_columns"`
	// Median time to copy out every REAL column vs only the model's features.
	ConvertFullNS   int64   `json:"convert_full_ns"`
	ConvertPrunedNS int64   `json:"convert_pruned_ns"`
	ConvertSpeedup  float64 `json:"convert_speedup"`
}

// FusionBenchReport is the full matrix plus the configuration, defaults
// filled, that produced it.
type FusionBenchReport struct {
	FusionBenchConfig
	Tables []FusionTableStat `json:"tables"`
	Cells  []FusionCell      `json:"cells"`
}

// fusionTableSpec pairs a benchmark table with its junk-column width.
type fusionTableSpec struct {
	name string
	junk int
}

// RunFusionBench builds the narrow and wide tables, trains one model, runs
// the selectivity matrix and verifies on every repetition that the fused
// results are bit-identical to post-filtering the unfused ones (and that the
// fused aggregate matches the materialized histogram). Any divergence is an
// error — the benchmark numbers are only worth reporting if the fused path
// returns the same answers.
func RunFusionBench(cfg FusionBenchConfig) (*FusionBenchReport, error) {
	data := dataset.Iris().Replicate(cfg.Rows)
	f, err := forest.Train(data, forest.ForestConfig{
		NumTrees:  cfg.Trees,
		Tree:      forest.TrainConfig{MaxDepth: cfg.Depth},
		Seed:      cfg.Seed,
		Bootstrap: true,
	})
	if err != nil {
		return nil, err
	}
	d := db.New()
	if err := d.StoreModel("fusion_rf", f); err != nil {
		return nil, err
	}
	specs := []fusionTableSpec{{name: "narrow", junk: 0}, {name: "wide", junk: cfg.JunkCols}}
	for _, s := range specs {
		tbl, err := buildFusionTable(s.name, data, s.junk)
		if err != nil {
			return nil, err
		}
		if err := d.CreateTable(tbl); err != nil {
			return nil, err
		}
	}

	// Caches off: every query converts its input and deserializes its model,
	// isolating what fusion changes about the per-query path. Fused and
	// unfused queries share this pipeline; only the statement differs.
	tb := platform.New()
	pipe := &pipeline.Pipeline{DB: d, Runtime: hw.DefaultRuntime(), Registry: tb.Registry}

	rep := &FusionBenchReport{FusionBenchConfig: cfg}
	for _, s := range specs {
		stat, err := convertStat(cfg, d, s, f.FeatureNames)
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, *stat)
		for _, sel := range cfg.Selectivities {
			cell, err := runFusionCell(cfg, pipe, s, sel)
			if err != nil {
				return nil, err
			}
			cell.RealColumns = stat.RealColumns
			rep.Cells = append(rep.Cells, *cell)
		}
	}
	return rep, nil
}

// convertStat measures full-width vs feature-pruned dataset conversion on
// one table — the projection-pruning win, isolated from scoring.
func convertStat(cfg FusionBenchConfig, d *db.Database, spec fusionTableSpec, features []string) (*FusionTableStat, error) {
	tbl, err := d.Table(spec.name)
	if err != nil {
		return nil, err
	}
	stat := &FusionTableStat{
		Table:       spec.name,
		RealColumns: len(features) + spec.junk,
		FeatureCols: len(features),
	}
	var full, pruned []time.Duration
	for r := 0; r < cfg.Repeats+1; r++ {
		t0 := time.Now()
		if _, err := tbl.DatasetFor(nil, 0); err != nil {
			return nil, err
		}
		tf := time.Since(t0)
		t0 = time.Now()
		if _, err := tbl.DatasetFor(features, 0); err != nil {
			return nil, err
		}
		tp := time.Since(t0)
		if r == 0 {
			continue // warm-up round
		}
		full = append(full, tf)
		pruned = append(pruned, tp)
	}
	stat.ConvertFullNS = int64(Summarize(full).P50)
	stat.ConvertPrunedNS = int64(Summarize(pruned).P50)
	if stat.ConvertPrunedNS > 0 {
		stat.ConvertSpeedup = float64(stat.ConvertFullNS) / float64(stat.ConvertPrunedNS)
	}
	return stat, nil
}

// runFusionCell measures one (table, selectivity) point and checks the fused
// answers against the post-filtered baseline on every repetition.
func runFusionCell(cfg FusionBenchConfig, pipe *pipeline.Pipeline,
	spec fusionTableSpec, sel float64) (*FusionCell, error) {
	cut := sel * float64(cfg.Rows)
	fusedSQL := fmt.Sprintf(
		"EXEC sp_score_model @model='fusion_rf', @data='%s', @backend='%s', @where='sel_key < %g'",
		spec.name, cfg.Backend, cut)
	unfusedSQL := fmt.Sprintf(
		"EXEC sp_score_model @model='fusion_rf', @data='%s', @backend='%s'",
		spec.name, cfg.Backend)

	cell := &FusionCell{Table: spec.name, Selectivity: sel}
	var fusedNS, unfusedNS, fusedSim, unfusedSim []time.Duration
	var lastFused []int

	// One untimed round warms the runtime (allocator, branch history); the
	// pipeline itself has no caches to warm.
	if _, err := pipe.ExecQuery(fusedSQL); err != nil {
		return nil, fmt.Errorf("fusion bench %s@%g fused: %w", spec.name, sel, err)
	}
	if _, err := pipe.ExecQuery(unfusedSQL); err != nil {
		return nil, fmt.Errorf("fusion bench %s@%g unfused: %w", spec.name, sel, err)
	}

	for r := 0; r < cfg.Repeats; r++ {
		t0 := time.Now()
		fres, err := pipe.ExecQuery(fusedSQL)
		tf := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("fusion bench %s@%g fused: %w", spec.name, sel, err)
		}

		// The unfused baseline's filter over the materialized predictions is
		// part of the measured client flow, not outside it.
		t0 = time.Now()
		ures, err := pipe.ExecQuery(unfusedSQL)
		if err != nil {
			return nil, fmt.Errorf("fusion bench %s@%g unfused: %w", spec.name, sel, err)
		}
		want := make([]int, 0, len(ures.Predictions))
		for i, p := range ures.Predictions {
			if float64(i) < cut {
				want = append(want, p)
			}
		}
		tu := time.Since(t0)

		// The answer check IS the benchmark's admission ticket: fused
		// predictions must equal filtering the scored-everything baseline.
		if err := Verify(want, fres.Predictions); err != nil {
			return nil, fmt.Errorf("fusion bench %s@%g DIVERGED from post-filtering: %w", spec.name, sel, err)
		}
		fusedNS = append(fusedNS, tf)
		unfusedNS = append(unfusedNS, tu)
		fusedSim = append(fusedSim, fres.Timeline.Total())
		unfusedSim = append(unfusedSim, ures.Timeline.Total())
		cell.RowsScanned, cell.RowsScored = fres.RowsScanned, fres.RowsScored
		lastFused = fres.Predictions
	}

	// Fused aggregate consistency (untimed): the GROUP BY histogram over the
	// same predicate must match counting the materialized fused predictions.
	agg, err := pipe.ExecQuery(fmt.Sprintf(
		"SELECT prediction, COUNT(*) FROM PREDICT(@model='fusion_rf', @data='%s', @backend='%s') WHERE sel_key < %g GROUP BY prediction",
		spec.name, cfg.Backend, cut))
	if err != nil {
		return nil, fmt.Errorf("fusion bench %s@%g aggregate: %w", spec.name, sel, err)
	}
	hist := tensor.Bincount(lastFused, 0)
	var total int64
	for row := 0; row < agg.Table.NumRows(); row++ {
		class, count := agg.Table.Cell(row, 0).I, agg.Table.Cell(row, 1).I
		total += count
		if class < 0 || class >= int64(len(hist)) || hist[class] != count {
			return nil, fmt.Errorf("fusion bench %s@%g DIVERGED: aggregate class %d count %d disagrees with materialized histogram",
				spec.name, sel, class, count)
		}
	}
	if total != int64(len(lastFused)) {
		return nil, fmt.Errorf("fusion bench %s@%g DIVERGED: aggregate totals %d rows, fused scored %d",
			spec.name, sel, total, len(lastFused))
	}

	cell.FusedNS = int64(Summarize(fusedNS).P50)
	cell.UnfusedNS = int64(Summarize(unfusedNS).P50)
	cell.FusedSimNS = int64(Summarize(fusedSim).P50)
	cell.UnfusedSimNS = int64(Summarize(unfusedSim).P50)
	if cell.FusedNS > 0 {
		cell.Speedup = float64(cell.UnfusedNS) / float64(cell.FusedNS)
	}
	return cell, nil
}

// buildFusionTable lays out [features..., sel_key, junk_XX..., label]: the
// model's features lead in schema order (so projection engages), sel_key is a
// BIGINT holding the row index (so a `sel_key < cut` predicate has exactly
// known selectivity, and the unfused baseline — whose engines accept only the
// model's feature count — still scores the narrow table), and the junk REAL
// columns are the dead weight projection pruning exists to avoid converting.
func buildFusionTable(name string, data *dataset.Dataset, junk int) (*db.Table, error) {
	cols := make([]db.Column, 0, data.NumFeatures()+junk+2)
	for _, fn := range data.FeatureNames {
		cols = append(cols, db.Column{Name: fn, Type: db.Float32Col})
	}
	cols = append(cols, db.Column{Name: "sel_key", Type: db.Int64Col})
	for j := 0; j < junk; j++ {
		cols = append(cols, db.Column{Name: fmt.Sprintf("junk_%02d", j), Type: db.Float32Col})
	}
	cols = append(cols, db.Column{Name: "label", Type: db.Int64Col})
	tbl, err := db.NewTable(name, cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < data.NumRecords(); i++ {
		row := make([]db.Value, 0, len(cols))
		for _, v := range data.Row(i) {
			row = append(row, db.Float(v))
		}
		row = append(row, db.Int(int64(i)))
		for j := 0; j < junk; j++ {
			row = append(row, db.Float(float32((i*7+j*13)%101)))
		}
		row = append(row, db.Int(int64(data.Y[i])))
		if err := tbl.Insert(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
