package main

import (
	"fmt"
	"slices"

	"accelscore/internal/db"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/storage"
)

// newPipeline builds a pipeline over d the way cmd/serve does
// (experiments.NewDemoOn's wiring); o may be nil.
func newPipeline(d *db.Database, o *obs.Observer) *pipeline.Pipeline {
	tb := platform.New()
	return &pipeline.Pipeline{
		DB:       d,
		Runtime:  hw.DefaultRuntime(),
		Registry: tb.Registry,
		Advisor:  tb.Advisor,
		Cache:    pipeline.NewModelCache(pipeline.DefaultModelCacheCapacity),
		Obs:      o,
	}
}

// oracle holds the single-node answers every tier response is checked
// against, bit for bit. Only the part the workload needs is filled.
type oracle struct {
	// point is the prediction prefix small_point's @limit queries return.
	point []int
	// scan is every prediction of scan_plain.
	scan []int
	// fused is scan_fused's class histogram.
	fused []int64
	// events[c] holds the predictions over client c's table with every
	// scheduled row inserted; after k inserted rows the tier must return
	// the first baseRows+k of them.
	events   [ingestClients][]int
	baseRows int
}

// buildOracle opens its own copy of the seeded directory, scores the
// workload's statement on one in-process pipeline and keeps the answers. For
// ingest_then_score it first applies the whole insert schedule through the
// same SQL path the shards use, so the rows are parsed identically.
func buildOracle(dir string, w workload, sz sizes, sched *schedule) (*oracle, error) {
	st, d, err := storage.Open(storage.Config{Dir: dir, Sync: storage.SyncNone})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	p := newPipeline(d, nil)
	o := &oracle{baseRows: sz.eventRows}
	score := func(sql string) (*pipeline.QueryResult, error) {
		res, err := p.ExecQuery(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", sql, err)
		}
		return res, nil
	}
	switch w.name {
	case "small_point":
		res, err := score(pointSQL(slices.Max(pointLimits)))
		if err != nil {
			return nil, err
		}
		o.point = res.Predictions
	case "scan_plain":
		res, err := score(scanPlainSQL)
		if err != nil {
			return nil, err
		}
		o.scan = res.Predictions
	case "scan_fused":
		res, err := score(scanFusedSQL(sz.fusedLimit))
		if err != nil {
			return nil, err
		}
		for _, row := range res.Table.Rows() {
			cls := int(row[0].I)
			for len(o.fused) <= cls {
				o.fused = append(o.fused, 0)
			}
			o.fused[cls] = row[1].I
		}
	case "ingest_then_score":
		for c, stmts := range sched.inserts {
			for _, sql := range stmts {
				if _, _, err := d.Query(sql); err != nil {
					return nil, fmt.Errorf("oracle: %w", err)
				}
			}
			res, err := score(ingestScoreSQL(c))
			if err != nil {
				return nil, err
			}
			o.events[c] = res.Predictions
		}
	}
	return o, nil
}

// queryResponse is the part of the router's /query reply the benchmark reads.
type queryResponse struct {
	OK          bool    `json:"ok"`
	Error       string  `json:"error"`
	Predictions []int   `json:"predictions"`
	ClassCounts []int64 `json:"class_counts"`
	Partial     bool    `json:"partial"`
	SimTotalNS  int64   `json:"sim_total_ns"`
}

// verifyPredictions checks a full, successful reply against want.
func verifyPredictions(resp *queryResponse, want []int) error {
	if err := resp.usable(); err != nil {
		return err
	}
	if !slices.Equal(resp.Predictions, want) {
		return fmt.Errorf("predictions differ from the oracle: %s", firstDiff(resp.Predictions, want))
	}
	return nil
}

// verifyCounts checks a fused-aggregate reply against want.
func verifyCounts(resp *queryResponse, want []int64) error {
	if err := resp.usable(); err != nil {
		return err
	}
	if !slices.Equal(resp.ClassCounts, want) {
		return fmt.Errorf("class counts %v differ from the oracle's %v", resp.ClassCounts, want)
	}
	return nil
}

func (r *queryResponse) usable() error {
	if !r.OK {
		return fmt.Errorf("query failed: %s", r.Error)
	}
	if r.Partial {
		return fmt.Errorf("partial result")
	}
	return nil
}

func firstDiff(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: got class %d, want %d", i, got[i], want[i])
		}
	}
	return "equal"
}
