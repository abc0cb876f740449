package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
)

// Demo is a small live scoring environment: the IRIS dataset loaded as a
// table, a trained random forest stored as a model, and a cache-enabled
// pipeline over the full testbed with the offload advisor. cmd/serve uses it
// for the interactive /query endpoint and the hot-path page; attach an
// obs.Observer to Pipe to collect telemetry from every query it runs.
type Demo struct {
	// DB holds the "iris" table and the "iris_rf" model.
	DB *db.Database
	// Pipe is the cache-enabled scoring pipeline.
	Pipe *pipeline.Pipeline
}

// DemoQuery is the canonical scoring statement against the demo environment.
const DemoQuery = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"

// DemoForestConfig is the training configuration of the demo's "iris_rf"
// model. It is exported so out-of-process verifiers (the restart-chaos
// scenario) can retrain the identical forest and check predictions
// bit-for-bit against the server's.
var DemoForestConfig = forest.ForestConfig{
	NumTrees:  32,
	Tree:      forest.TrainConfig{MaxDepth: 10},
	Seed:      1,
	Bootstrap: true,
}

// NewDemo builds the demo environment with the IRIS table replicated to
// records rows (<= 0 means 2000) and a 32-tree depth-10 forest.
func NewDemo(records int) (*Demo, error) {
	return NewDemoOn(db.New(), records)
}

// NewDemoOn builds the demo environment on an existing database — the
// durable-storage path: after crash recovery the "iris" table and "iris_rf"
// model already exist and are reused as-is; on a fresh data directory they
// are seeded (and journaled) like any other write. Seeding is idempotent
// per object, so a crash between the table landing and the model landing
// heals on the next boot.
func NewDemoOn(d *db.Database, records int) (*Demo, error) {
	if records <= 0 {
		records = 2000
	}
	tb := platform.New()
	if _, err := d.Table("iris"); errors.Is(err, db.ErrTableNotFound) {
		data := dataset.Iris().Replicate(records)
		tbl, err := db.TableFromDataset("iris", data)
		if err != nil {
			return nil, err
		}
		if err := d.CreateTable(tbl); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	if _, err := d.LoadModelBlob("iris_rf"); errors.Is(err, db.ErrModelNotFound) {
		f, err := forest.Train(dataset.Iris(), DemoForestConfig)
		if err != nil {
			return nil, err
		}
		if err := d.StoreModel("iris_rf", f); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	return &Demo{
		DB: d,
		Pipe: &pipeline.Pipeline{
			DB:       d,
			Runtime:  hw.DefaultRuntime(),
			Registry: tb.Registry,
			Advisor:  tb.Advisor,
			Cache:    pipeline.NewModelCache(8),
		},
	}, nil
}

// HotPathReport demonstrates the compiled-model cache live: one cold query
// against the demo's (fresh) pipeline, then repeated warm queries, with the
// per-stage simulated breakdown, measured wall-clock cost and the cache's
// hit/miss/eviction counters. Call on a freshly built Demo so the first
// query really is cold.
func (d *Demo) HotPathReport() (string, error) {
	var sb strings.Builder
	sb.WriteString("Compiled-model cache on repeated scoring queries\n")
	sb.WriteString("query: " + DemoQuery + "\n\n")
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		res, err := d.Pipe.ExecQuery(DemoQuery)
		if err != nil {
			return "", err
		}
		wall := time.Since(t0)
		label := "cold (cache miss)"
		if res.CacheHit {
			label = "warm (cache hit)"
		}
		fmt.Fprintf(&sb, "query %d: %-17s wall-clock %-12v simulated model-preproc %-12v simulated total %v\n",
			i+1, label, wall.Round(time.Microsecond),
			res.Timeline.Component(pipeline.StageModelPreproc),
			res.Timeline.Total().Round(time.Microsecond))
		if res.TraceID != "" {
			fmt.Fprintf(&sb, "         trace %s (download: /debug/trace/%s)\n", res.TraceID, res.TraceID)
		}
	}
	sb.WriteString("\ncache counters: " + d.Pipe.Cache.Stats().String() + "\n")
	sb.WriteString("\nOn a hit the query skips blob deserialization, stats computation and\n" +
		"kernel lowering; model pre-processing collapses to a checksum check and\n" +
		"the input table is scored in place, as a view of its row-major block.\n")
	return sb.String(), nil
}
