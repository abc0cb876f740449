package conformance

import (
	"context"
	"encoding/json"
	"fmt"

	"accelscore/internal/backend"
	"accelscore/internal/db"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// scaleoutShards is the scatter width of the conformance scale-out topology:
// three in-process shards is the smallest width where a middle partition has
// non-trivial neighbors on both sides of the hash split.
const scaleoutShards = 3

// wiredShard is an in-process shard whose results are encoded and decoded
// as the HTTP tier would ship them.
type wiredShard struct {
	*router.Local
	frame bool
}

func (s wiredShard) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	res, err := s.Local.Score(ctx, req)
	if err != nil {
		return nil, err
	}
	if s.frame {
		wire, err := router.EncodeFrame(res)
		if err != nil {
			return nil, err
		}
		return router.DecodeFrame(wire)
	}
	wire, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	out := new(router.Result)
	return out, json.Unmarshal(wire, out)
}

// scaleoutChecks verifies the scatter-gather serving tier end to end for one
// case: a router over three in-process (router.Local) shards, each a full
// replica of the case's data, must produce results bit-identical to a
// single-node pipeline run of the same statement — for every engine, for a
// full scan, for tenant-affine routing, for a bounded scan too small to
// scatter, for a pushed-down @where whose selection bitmap is split across
// the hash partitions, and for the fused GROUP BY aggregate whose per-shard
// histograms are summed at the gather.
// Any divergence here means the hash partitioning, the sub-query scatter or
// the k-way ordinal merge reordered, dropped or double-counted rows.
func (r *Runner) scaleoutChecks(rep *Report, c Case, ref *Reference) {
	database := db.New()
	tbl, err := db.TableFromDataset("scoring_input", c.Data)
	if err != nil {
		rep.fail(c.Name, "", "scaleout-setup", err.Error())
		return
	}
	if err := database.CreateTable(tbl); err != nil {
		rep.fail(c.Name, "", "scaleout-setup", err.Error())
		return
	}
	if err := database.StoreModelBlob("m", c.Blob); err != nil {
		rep.fail(c.Name, "", "scaleout-setup", err.Error())
		return
	}
	reg := backend.NewRegistry()
	for _, eng := range r.Engines {
		if err := reg.Register(eng); err != nil {
			rep.fail(c.Name, eng.Name(), "scaleout-setup", err.Error())
			return
		}
	}
	newPipe := func() *pipeline.Pipeline {
		return &pipeline.Pipeline{
			DB:       database,
			Runtime:  r.Runtime,
			Registry: reg,
			Cache:    pipeline.NewModelCache(4),
		}
	}

	// Data-symmetric replicas: every shard sees the full table and scores
	// only its hash partition — the serving tier's topology in miniature.
	single := newPipe()
	shards := make([]router.Backend, scaleoutShards)
	for i := range shards {
		// Each sub-result crosses one of the two /score representations
		// (frames on the even shards, JSON on the odd one), so the leg holds
		// the wire to the same bit-identical bar as the merge.
		shards[i] = wiredShard{
			Local: &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: newPipe()},
			frame: i%2 == 0,
		}
	}
	rt, err := router.New(router.Config{Backends: shards})
	if err != nil {
		rep.fail(c.Name, "", "scaleout-setup", err.Error())
		return
	}
	ctx := context.Background()

	col := c.Data.FeatureNames[0]
	cut := finiteMidpoint(c.Data, 0)

	for _, eng := range r.Engines {
		name := eng.Name()

		// Full scan: dense predictions, so the merged result must drop its
		// ordinal list and match the single-node shape exactly.
		scanSQL := fmt.Sprintf(
			"EXEC sp_score_model @model = 'm', @data = 'scoring_input', @backend = '%s'", name)
		base, err := single.ExecQuery(scanSQL)
		if err != nil {
			// The engine rejects this configuration identically on every
			// node; nothing for the scatter tier to diverge from.
			rep.skip(c.Name, name, "scaleout-scan", err.Error())
			continue
		}
		merged, err := rt.Query(ctx, scanSQL, router.QueryOptions{})
		switch {
		case err != nil:
			rep.fail(c.Name, name, "scaleout-scan", err.Error())
		case merged.Partial:
			rep.fail(c.Name, name, "scaleout-scan",
				fmt.Sprintf("healthy shards produced a partial result (missing %v)", merged.MissingPartitions))
		case merged.ScoredRows != nil:
			rep.fail(c.Name, name, "scaleout-scan",
				"dense scan kept a ScoredRows ordinal list; single-node shape is nil")
		case firstDiff(merged.Predictions, base.Predictions) >= 0:
			d := firstDiff(merged.Predictions, base.Predictions)
			rep.fail(c.Name, name, "scaleout-scan",
				fmt.Sprintf("row %d: merged %d, single-node %d", d, at(merged.Predictions, d), at(base.Predictions, d)))
		case merged.RowsScored != base.RowsScored || merged.RowsScanned != base.RowsScanned:
			rep.fail(c.Name, name, "scaleout-scan",
				fmt.Sprintf("merged scanned/scored %d/%d rows, single-node %d/%d",
					merged.RowsScanned, merged.RowsScored, base.RowsScanned, base.RowsScored))
		case firstDiff(merged.Predictions, ref.Predictions) >= 0:
			d := firstDiff(merged.Predictions, ref.Predictions)
			rep.fail(c.Name, name, "scaleout-scan", mismatchDetail(d, merged.Predictions[d], ref))
		default:
			rep.pass(c.Name, name, "scaleout-scan")
		}

		// Tenant affinity: the whole query lands unpartitioned on the
		// tenant's home shard and must still equal the single-node run.
		tres, err := rt.Query(ctx, scanSQL, router.QueryOptions{Tenant: "conformance-tenant"})
		switch {
		case err != nil:
			rep.fail(c.Name, name, "scaleout-tenant", err.Error())
		case firstDiff(tres.Predictions, base.Predictions) >= 0:
			d := firstDiff(tres.Predictions, base.Predictions)
			rep.fail(c.Name, name, "scaleout-tenant",
				fmt.Sprintf("row %d: tenant-routed %d, single-node %d", d, at(tres.Predictions, d), at(base.Predictions, d)))
		default:
			rep.pass(c.Name, name, "scaleout-tenant")
		}

		// leg runs one statement on the single node and through the router;
		// diff returns "" when the two results are identical.
		leg := func(check, sql string, diff func(*router.Merged, *pipeline.QueryResult) string) {
			base, err := single.ExecQuery(sql)
			if err != nil {
				rep.skip(c.Name, name, check, err.Error())
			} else if m, err := rt.Query(ctx, sql, router.QueryOptions{}); err != nil {
				rep.fail(c.Name, name, check, err.Error())
			} else if detail := diff(m, base); detail != "" {
				rep.fail(c.Name, name, check, detail)
			} else {
				rep.pass(c.Name, name, check)
			}
		}

		// Bounded scan: an @limit worth less than one partition is not
		// scattered at all. The one unpartitioned sub-query still crosses a
		// wire, on whichever shard the rotation homes it, and must equal the
		// single-node run of the same prefix.
		leg("scaleout-bounded", fmt.Sprintf("%s, @limit = %d", scanSQL, c.Data.NumRecords()/2),
			func(m *router.Merged, base *pipeline.QueryResult) string {
				if m.Shards != 1 {
					return fmt.Sprintf("%d rows scattered %d wide, the plan says 1", base.RowsScanned, m.Shards)
				}
				return scatterMismatch(m, base)
			})

		// Pushed-down @where: each shard evaluates the filter over its own
		// partition, so the selection bitmap is split three ways and the
		// gather must stitch the surviving ordinals back into single-node
		// order.
		leg("scaleout-where", fmt.Sprintf(
			"EXEC sp_score_model @model = 'm', @data = 'scoring_input', @backend = '%s', @where = '%s < %g'",
			name, col, cut), scatterMismatch)

		// Fused aggregate: per-shard class histograms summed at the gather
		// must equal the single-node GROUP BY table cell for cell.
		leg("scaleout-aggregate", fmt.Sprintf(
			"SELECT prediction, COUNT(*) FROM PREDICT(@model = 'm', @data = 'scoring_input', @backend = '%s') GROUP BY prediction",
			name), func(m *router.Merged, base *pipeline.QueryResult) string { return tableDiff(m.Table, base.Table) })
	}
}

// scatterMismatch compares a merged scatter result against the single-node
// run of the same filtered statement, returning "" when bit-identical.
func scatterMismatch(m *router.Merged, base *pipeline.QueryResult) string {
	if m.Partial {
		return fmt.Sprintf("healthy shards produced a partial result (missing %v)", m.MissingPartitions)
	}
	if d := firstDiff(m.Predictions, base.Predictions); d >= 0 {
		return fmt.Sprintf("row %d: merged %d, single-node %d", d, at(m.Predictions, d), at(base.Predictions, d))
	}
	if len(m.ScoredRows) != len(base.ScoredRows) {
		return fmt.Sprintf("merged kept %d scored-row ordinals, single-node %d",
			len(m.ScoredRows), len(base.ScoredRows))
	}
	for i := range m.ScoredRows {
		if m.ScoredRows[i] != base.ScoredRows[i] {
			return fmt.Sprintf("scored-row %d: merged ordinal %d, single-node %d",
				i, m.ScoredRows[i], base.ScoredRows[i])
		}
	}
	if m.RowsScored != base.RowsScored || m.RowsScanned != base.RowsScanned {
		return fmt.Sprintf("merged scanned/scored %d/%d rows, single-node %d/%d",
			m.RowsScanned, m.RowsScored, base.RowsScanned, base.RowsScored)
	}
	return ""
}

// tableDiff compares two result tables cell for cell (both sides are
// integer-typed aggregate tables), returning "" when identical.
func tableDiff(got, want *db.Table) string {
	if got == nil || want == nil {
		return fmt.Sprintf("result table nil: merged=%v single-node=%v", got == nil, want == nil)
	}
	if len(got.Columns) != len(want.Columns) {
		return fmt.Sprintf("merged table has %d columns, single-node %d", len(got.Columns), len(want.Columns))
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("merged table has %d rows, single-node %d", got.NumRows(), want.NumRows())
	}
	for r := 0; r < got.NumRows(); r++ {
		for c := range got.Columns {
			if g, w := got.Cell(r, c).I, want.Cell(r, c).I; g != w {
				return fmt.Sprintf("table cell (%d,%d): merged %d, single-node %d", r, c, g, w)
			}
		}
	}
	return ""
}
