package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/sched"
)

// LoadConfig parameterizes the load-generation environment.
type LoadConfig struct {
	// Queries is the stream length.
	Queries int
	// Seed makes the stream deterministic.
	Seed uint64
	// Backend is the engine every query requests ("auto" routes through the
	// offload advisor).
	Backend string
	// TableRows sizes the scoring input table; per-query record counts are
	// drawn log-uniformly in [1, TableRows] and applied via @limit.
	TableRows int
	// TreeChoices and DepthChoices span the model-complexity axis; one
	// model is trained and stored per (trees, depth) pair.
	TreeChoices  []int
	DepthChoices []int
}

// meanInterarrival spaces the generated arrival times the simulator replays.
const meanInterarrival = 5 * time.Millisecond

// LoadEnv is a self-contained serving environment for load generation: an
// IRIS-replicated "stream" table, one trained model per (trees, depth)
// shape, a cache-enabled pipeline over the full testbed, and a
// deterministic query stream produced by the scheduling model's workload
// generator — so measured serving numbers line up with simulator
// predictions over the same stream.
type LoadEnv struct {
	Pipe    *pipeline.Pipeline
	Cfg     LoadConfig
	Queries []sched.Query
}

// BuildLoadEnv trains the model zoo, loads the stream table and generates
// the query stream. The observer may be nil.
func BuildLoadEnv(cfg LoadConfig, observer *obs.Observer) (*LoadEnv, error) {
	iris := dataset.Iris()
	d := db.New()
	tbl, err := db.TableFromDataset("stream", iris.Replicate(cfg.TableRows))
	if err != nil {
		return nil, err
	}
	if err := d.CreateTable(tbl); err != nil {
		return nil, err
	}
	for _, trees := range cfg.TreeChoices {
		for _, depth := range cfg.DepthChoices {
			f, err := forest.Train(iris, forest.ForestConfig{
				NumTrees:  trees,
				Tree:      forest.TrainConfig{MaxDepth: depth},
				Seed:      cfg.Seed,
				Bootstrap: true,
			})
			if err != nil {
				return nil, err
			}
			if err := d.StoreModel(loadModelName(trees, depth), f); err != nil {
				return nil, err
			}
		}
	}

	queries, err := sched.Generate(sched.WorkloadConfig{
		Queries:          cfg.Queries,
		MeanInterarrival: meanInterarrival,
		Features:         iris.NumFeatures(),
		Classes:          iris.NumClasses(),
		TreeChoices:      cfg.TreeChoices,
		DepthChoices:     cfg.DepthChoices,
		MinRecords:       1,
		MaxRecords:       int64(cfg.TableRows),
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	tb := platform.New()
	return &LoadEnv{
		Pipe: &pipeline.Pipeline{
			DB:       d,
			Runtime:  hw.DefaultRuntime(),
			Registry: tb.Registry,
			Advisor:  tb.Advisor,
			Cache:    pipeline.NewModelCache(16),
			Obs:      observer,
		},
		Cfg:     cfg,
		Queries: queries,
	}, nil
}

// loadModelName names the stored model for a (trees, depth) shape.
func loadModelName(trees, depth int) string {
	return fmt.Sprintf("rf_t%d_d%d", trees, depth)
}

// SQLFor renders the scoring statement for one stream query.
func (env *LoadEnv) SQLFor(q sched.Query) string {
	return fmt.Sprintf("EXEC sp_score_model @model='%s', @data='stream', @backend='%s', @limit=%d",
		loadModelName(q.Stats.Trees, q.Stats.MaxDepth), env.Cfg.Backend, q.Records)
}

// Simulate runs the same query stream through the scheduling simulator on a
// static placement matching the load's backend, so measured serving metrics
// print next to the model's prediction.
func (env *LoadEnv) Simulate() (sched.Metrics, error) {
	s := &sched.Simulator{Registry: env.Pipe.Registry}
	_, m, err := s.Run(sched.Static{BackendName: env.Cfg.Backend, Registry: env.Pipe.Registry}, env.Queries)
	return m, err
}

// QueryRunner abstracts who executes a statement: the concurrent
// exec.Executor or the serialized baseline.
type QueryRunner interface {
	ExecQuery(sql string) (*pipeline.QueryResult, error)
}

// SerializedRunner reproduces the pre-executor serving behavior — one
// global mutex around the pipeline — as the load harness's baseline.
type SerializedRunner struct {
	mu   sync.Mutex
	Pipe *pipeline.Pipeline
}

// ExecQuery runs one statement under the global lock.
func (s *SerializedRunner) ExecQuery(sql string) (*pipeline.QueryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Pipe.ExecQuery(sql)
}

// RunOptions shapes one closed-loop load run.
type RunOptions struct {
	// Clients is the closed-loop concurrency.
	Clients int
	// SLO holds per-class latency objectives; when non-empty every query
	// is classified by record count (see ClassForRecords) and the report
	// gains per-class goodput. Rejected and errored queries burn budget.
	SLO []obs.Objective
}

// ClassForRecords maps a query's record count onto an objective class by
// splitting [1, maxRecords] into geometric bands, one per objective in
// ascending-latency order — the smallest queries get the tightest
// objective. The mapping is deterministic, so the same stream classifies
// identically across runs and configurations.
func ClassForRecords(objs []obs.Objective, records, maxRecords int64) string {
	if len(objs) == 0 {
		return ""
	}
	byLatency := append([]obs.Objective(nil), objs...)
	sort.Slice(byLatency, func(i, j int) bool { return byLatency[i].Latency < byLatency[j].Latency })
	if maxRecords <= 1 || records <= 1 {
		return byLatency[0].Class
	}
	if records > maxRecords {
		records = maxRecords
	}
	// Record counts are drawn log-uniformly, so geometric bands split the
	// stream roughly evenly across classes.
	frac := math.Log(float64(records)) / math.Log(float64(maxRecords))
	idx := int(frac * float64(len(byLatency)))
	if idx >= len(byLatency) {
		idx = len(byLatency) - 1
	}
	return byLatency[idx].Class
}

// LoadReport summarizes one load run.
type LoadReport struct {
	Label         string        `json:"label"`
	Queries       int           `json:"queries"`
	Ok            int           `json:"ok"`
	Rejected      int           `json:"rejected"`
	Errors        int           `json:"errors"`
	Wall          time.Duration `json:"wall_ns"`
	ThroughputQPS float64       `json:"throughput_qps"`
	Mean          time.Duration `json:"mean_ns"`
	P50           time.Duration `json:"p50_ns"`
	P99           time.Duration `json:"p99_ns"`
	// SLO is the per-class goodput accounting when objectives were
	// configured (RunOptions.SLO); Goodput is the overall good fraction.
	SLO     []obs.ClassReport `json:"slo,omitempty"`
	Goodput float64           `json:"goodput,omitempty"`
}

// String renders one report line.
func (r *LoadReport) String() string {
	s := fmt.Sprintf("%-24s %5d ok %4d rej %3d err  wall %-10v  %8.1f qps  mean %-10v p50 %-10v p99 %v",
		r.Label, r.Ok, r.Rejected, r.Errors, r.Wall.Round(time.Millisecond),
		r.ThroughputQPS, r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P99.Round(time.Microsecond))
	if len(r.SLO) > 0 {
		s += fmt.Sprintf("  goodput %.1f%%", 100*r.Goodput)
	}
	return s
}

// RunLoad replays the environment's query stream through the runner and
// measures real end-to-end serving performance. Anything but an answer or an
// admission rejection fails the run.
func RunLoad(env *LoadEnv, r QueryRunner, label string, opt RunOptions) (*LoadReport, error) {
	op := func(_ context.Context, i int) error {
		_, err := r.ExecQuery(env.SQLFor(env.Queries[i]))
		return err
	}
	run := Closed(context.Background(), opt.Clients, len(env.Queries), 0, op)

	for _, s := range run.Samples {
		if c := Classify(s.Err); c != OK && c != Rejected {
			return nil, fmt.Errorf("harness: load run %q: %w", label, s.Err)
		}
	}
	t := run.Tally()
	rep := &LoadReport{
		Label: label, Queries: len(env.Queries), Wall: run.Wall,
		Ok: t[OK], Rejected: t[Rejected],
	}
	if rep.Wall > 0 {
		rep.ThroughputQPS = float64(rep.Ok) / rep.Wall.Seconds()
	}
	sum := Summarize(run.OKLatencies())
	rep.Mean, rep.P50, rep.P99 = sum.Mean, sum.P50, sum.P99
	if len(opt.SLO) > 0 {
		// A nil registry keeps the engine pure accounting — loadgen's
		// per-run environments are throwaway, so no gauges to publish.
		eng := obs.NewSLOEngine(nil, opt.SLO)
		maxRec := int64(env.Cfg.TableRows)
		for _, s := range run.Samples {
			class := ClassForRecords(opt.SLO, env.Queries[s.I].Records, maxRec)
			eng.Observe(class, s.Latency, s.Err == nil)
		}
		rep.SLO = eng.Report()
		var good, total uint64
		for _, c := range rep.SLO {
			good += c.Good
			total += c.Total
		}
		if total > 0 {
			rep.Goodput = float64(good) / float64(total)
		}
	}
	return rep, nil
}
