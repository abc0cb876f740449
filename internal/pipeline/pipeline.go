// Package pipeline implements the end-to-end analytics and model-scoring
// pipeline of the paper's Fig. 2: a T-SQL query arrives at the (mini) DBMS,
// which launches an external Python-like runtime, copies the model blob and
// the input rows to it, pre-processes both, scores on a chosen backend
// (CPU, GPU or FPGA), post-processes, and returns the predictions to the
// DBMS. Every stage is a named span, producing the Fig. 11 end-to-end
// latency breakdown, and the functional path really executes each stage
// (deserialization, conversion, scoring, result-table assembly).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/core"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/kernel"
	"accelscore/internal/model"
	"accelscore/internal/obs"
	"accelscore/internal/sim"
)

// ScoreProcName is the stored procedure the pipeline implements, the
// equivalent of the paper's Fig. 3 Python-script procedure.
const ScoreProcName = "sp_score_model"

// Stage names of the Fig. 11 breakdown.
const (
	StagePythonInvocation = "Python invocation"
	StageDataTransfer     = "data transfer"
	StageModelPreproc     = "model pre-processing"
	StageDataPreproc      = "data pre-processing"
	StageModelScoring     = "model scoring"
	StagePostprocessing   = "post-processing"
)

// Metric names the pipeline publishes into an attached obs.Observer.
// Simulated durations carry the _sim_ infix; wall-clock ones do not.
const (
	// MetricQueriesTotal counts scoring queries by terminal status
	// {status="ok"|"error"}.
	MetricQueriesTotal = "accelscore_queries_total"
	// MetricStatementsTotal counts parsed statements by kind
	// {kind="select"|"create"|"insert"|"exec"|"parse_error"}.
	MetricStatementsTotal = "accelscore_statements_total"
	// MetricQueryWallSeconds is the measured wall-clock histogram of
	// successful scoring queries.
	MetricQueryWallSeconds = "accelscore_query_wall_seconds"
	// MetricStageSimSeconds is the simulated per-stage latency histogram
	// {stage=<Fig. 11 stage name>}.
	MetricStageSimSeconds = "accelscore_stage_sim_seconds"
	// MetricBackendSimSeconds is the simulated scoring-stage latency
	// histogram {backend=<engine name>}.
	MetricBackendSimSeconds = "accelscore_backend_sim_seconds"
	// MetricBackendSelectedTotal counts scoring-backend resolutions
	// {backend, source="param"|"advisor"|"default"}.
	MetricBackendSelectedTotal = "accelscore_backend_selected_total"
	// MetricAdvisorDecisionsTotal counts offload-advisor picks
	// {backend=<chosen engine>}.
	MetricAdvisorDecisionsTotal = "accelscore_advisor_decisions_total"
	// MetricOLCSimSecondsTotal accumulates the scoring detail by the Fig. 6
	// taxonomy {backend, kind="overhead"|"transfer"|"compute"}.
	MetricOLCSimSecondsTotal = "accelscore_olc_sim_seconds_total"
	// MetricModelCacheEventsTotal counts compiled-model cache activity
	// {event="hit"|"miss"|"eviction"}.
	MetricModelCacheEventsTotal = "accelscore_model_cache_events_total"
	// MetricModelCacheEntries gauges the resident compiled models.
	MetricModelCacheEntries = "accelscore_model_cache_entries"
	// MetricSnapshotCacheEventsTotal counts how scoring inputs left the table
	// {event="hit"|"miss"}: hit is a view of the table's own block, miss a
	// gathered copy (db.Table.DatasetSnapshotFor). The name predates the
	// block layout, when hit meant a cached conversion.
	MetricSnapshotCacheEventsTotal = "accelscore_snapshot_cache_events_total"
	// MetricEstimatesTotal counts Estimate calls {backend=<engine name>}.
	MetricEstimatesTotal = "accelscore_estimates_total"
	// MetricRowsScannedTotal accumulates rows read out of the column store by
	// scoring queries (post @limit, pre filter).
	MetricRowsScannedTotal = "accelscore_rows_scanned_total"
	// MetricRowsScoredTotal accumulates rows that survived the pushed-down
	// filter and reached the scoring kernel.
	MetricRowsScoredTotal = "accelscore_rows_scored_total"
	// MetricFusedQueriesTotal counts fused scoring queries by shape
	// {mode="filter"|"aggregate"|"filter_aggregate"}.
	MetricFusedQueriesTotal = "accelscore_fused_queries_total"
	// MetricFusedStageSimSeconds is MetricStageSimSeconds restricted to fused
	// queries {stage}, for before/after fusion comparisons.
	MetricFusedStageSimSeconds = "accelscore_fused_stage_sim_seconds"
	// The measured per-stage series are obs.MetricStageCPUSeconds and its
	// two allocation counters, published by obs.Observer.Stage.
	// MetricTransferBytesTotal accumulates simulated bytes crossing the
	// runtime boundary {direction="in"|"out"}.
	MetricTransferBytesTotal = "accelscore_transfer_bytes_total"
)

// Attribution stage names for the two transfer legs (the measured stages
// reuse the Fig. 11 stage names directly).
const (
	StageTransferIn  = StageDataTransfer + " (in)"
	StageTransferOut = StageDataTransfer + " (out)"
)

// Pipeline executes scoring queries end to end.
type Pipeline struct {
	// DB is the hosting database.
	DB *db.Database
	// Runtime models the external-process environment (hw.DefaultRuntime
	// for the paper's loose integration, hw.TightlyIntegratedRuntime for
	// the §IV-E ablation).
	Runtime hw.RuntimeSpec
	// Registry resolves backend names from the @backend parameter.
	Registry *backend.Registry
	// Advisor, when set, resolves @backend = 'auto' (and missing @backend)
	// to the predicted-optimal engine.
	Advisor *core.Advisor
	// DefaultBackend is used when no @backend parameter is given and no
	// Advisor is configured.
	DefaultBackend string
	// Cache, when set, enables the hot path: compiled models (deserialized
	// forest + flat kernel form + stats) are reused across queries keyed by
	// model name and blob checksum, and input tables are scored in place —
	// the dataset is a view of the table's block, not a conversion. Nil
	// reproduces the paper's baseline, which redoes all pre-processing
	// (model and a copying data conversion) per query.
	Cache *ModelCache
	// Obs, when set, publishes per-query telemetry: stage/backend latency
	// histograms, query/error/cache/advisor counters into Obs.Registry, and
	// one trace per query (wall-clock spans plus the simulated Fig. 11 and
	// Fig. 7 timelines) into Obs.Tracer. Nil disables all publication.
	Obs *obs.Observer
	// Faults, when set, is handed to every engine call so the simulators
	// surface injected device-busy/corrupt/crash/hang conditions at their
	// O/L/C boundaries. Nil (the default) injects nothing.
	Faults *faults.Injector
}

// QueryResult is the outcome of an end-to-end scoring query.
type QueryResult struct {
	// Predictions holds one class per scored row.
	Predictions []int
	// Table is the result table returned to the DBMS (a "prediction"
	// column), mirroring the Pandas DataFrame return of §II.
	Table *db.Table
	// Backend is the engine that performed the scoring.
	Backend string
	// Timeline is the end-to-end breakdown (Fig. 11 stages; the scoring
	// stage appears as one span).
	Timeline sim.Timeline
	// ScoringDetail is the backend's own component breakdown (Fig. 7).
	ScoringDetail sim.Timeline
	// CacheHit reports whether the model came from the compiled-model cache
	// (always false when the pipeline has no cache).
	CacheHit bool
	// CacheStats snapshots the cache counters after the query (zero value
	// when the pipeline has no cache).
	CacheStats CacheStats
	// TraceID identifies the query's trace in the pipeline's observer
	// (empty when no observer with a tracer is attached).
	TraceID string
	// FallbackFrom names the originally requested backend when the executor
	// degraded the query to another engine ("" = no fallback).
	FallbackFrom string
	// FallbackReason records why the executor degraded: "deadline" (the
	// device's recent runs could not meet the query's remaining budget) or
	// "fault" (the run ended in a device fault or a detected hang); "" = no
	// fallback.
	FallbackReason string
	// RowsScanned is how many rows left the column store for this query
	// (after @limit pushdown, before the fused WHERE).
	RowsScanned int
	// RowsScored is how many rows survived the pushed-down filter and were
	// actually scored (== RowsScanned without a filter).
	RowsScored int
	// ScoredRows lists the scan ordinals (0-based, post-@limit) of the rows
	// behind Predictions, in ascending order, when a pushed-down WHERE
	// restricted scoring; nil otherwise (a stripe's follow from Partition.Row).
	// The scale-out router merges shard results by these ordinals, so the
	// merged prediction order is bit-identical to a single-node run.
	ScoredRows []int
	// Fused reports whether the query engaged operator fusion (a pushed-down
	// WHERE and/or a fused aggregate).
	Fused bool
	// Attribution is the query's per-stage resource cost in canonical order:
	// the inbound transfer leg's bytes, the three measured stages' process
	// CPU time and heap allocations, the outbound leg's bytes. Populated
	// whenever the pipeline has an observer.
	Attribution obs.Attribution
}

// ExecQuery parses and runs one T-SQL statement. SELECTs execute directly in
// the DBMS; EXEC sp_score_model runs the full scoring pipeline.
func (p *Pipeline) ExecQuery(sql string) (*QueryResult, error) {
	return p.ExecQueryCtx(context.Background(), sql)
}

// ExecQueryCtx is ExecQuery under a caller context: the query's deadline and
// cancellation propagate through every pipeline stage into the engine call.
func (p *Pipeline) ExecQueryCtx(ctx context.Context, sql string) (*QueryResult, error) {
	st, err := p.Parse(sql)
	if err != nil {
		return nil, err
	}
	return p.ExecStatementCtx(ctx, st)
}

// Parse parses one statement, counting a failure as kind "parse_error" —
// for front-ends that inspect the statement before ExecStatementCtx.
func (p *Pipeline) Parse(sql string) (db.Statement, error) {
	st, err := db.Parse(sql)
	if err != nil {
		countStatement(p.Obs, "parse_error")
	}
	return st, err
}

// ExecStatementCtx runs one parsed statement under a caller context,
// counting it by kind. Exported so front-ends that parse once to inspect the
// statement (the concurrent executor, serve's /sql) can dispatch without
// re-parsing. Non-scoring statements execute in the DBMS and only check the
// context up front (they are short); scoring statements thread it all the
// way into the engine.
func (p *Pipeline) ExecStatementCtx(ctx context.Context, st db.Statement) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req, err := ScoreRequestOf(p.Obs, st)
	if err != nil {
		return nil, err
	}
	if req != nil {
		if req.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, req.Timeout)
			defer cancel()
		}
		return p.ExecScoreCtx(ctx, req)
	}
	switch s := st.(type) {
	case *db.SelectStmt:
		countStatement(p.Obs, "select")
		tbl, err := p.DB.Select(s)
		if err != nil {
			return nil, err
		}
		return &QueryResult{Table: tbl}, nil
	case *db.CreateStmt:
		countStatement(p.Obs, "create")
		return &QueryResult{}, p.DB.Create(s)
	case *db.InsertStmt:
		countStatement(p.Obs, "insert")
		_, err := p.DB.InsertRows(s)
		return &QueryResult{}, err
	case *db.DeleteStmt:
		countStatement(p.Obs, "delete")
		_, err := p.DB.Delete(s)
		return &QueryResult{}, err
	case *db.UpdateStmt:
		countStatement(p.Obs, "update")
		_, err := p.DB.Update(s)
		return &QueryResult{}, err
	default:
		return nil, fmt.Errorf("pipeline: unsupported statement %T", st)
	}
}

// ScoreRequestOf is the one mapping from a parsed statement to the scoring
// request it describes — the two scoring forms are
//
//	EXEC sp_score_model @model = '<model>', @data = '<table>'
//	     [, @backend = '<name>|auto'] [, @limit = n] [, @where = '...'] ...
//	SELECT ... FROM PREDICT(@model = ..., @data = ...) [WHERE ...] [GROUP BY prediction]
//
// — and (nil, nil) for every other statement. With an observer it counts the
// scoring statement by kind, and a parameter error as a failed query:
// parameter failures never reach observeQuery.
func ScoreRequestOf(o *obs.Observer, st db.Statement) (req *ScoreRequest, err error) {
	switch s := st.(type) {
	case *db.ExecStmt:
		countStatement(o, "exec")
		if !strings.EqualFold(s.Proc, ScoreProcName) {
			return nil, fmt.Errorf("pipeline: unknown procedure %q", s.Proc)
		}
		req, err = ParseScoreParams(s)
	case *db.PredictStmt:
		countStatement(o, "predict")
		req, err = ParsePredictStmt(s)
	}
	if err != nil {
		if reg := o.Metrics(); reg != nil {
			reg.Counter(MetricQueriesTotal, "Scoring queries by terminal status.",
				"status", "error").Inc()
		}
	}
	return req, err
}

// ScoreRequest is a validated sp_score_model invocation: which model to run
// over which table on which backend. It is the unit the concurrent executor
// admits and runs.
type ScoreRequest struct {
	// Model names the stored model to score with.
	Model string
	// Data names the input table.
	Data string
	// Backend is the requested engine ("" = pipeline default, "auto" =
	// advisor).
	Backend string
	// Limit caps the scored rows (0 = all rows).
	Limit int
	// Timeout is the query's own deadline from @timeout (0 = none). The
	// executor turns it into a context deadline covering queueing, the run
	// and any fallback.
	Timeout time.Duration
	// Where holds pushed-down filter conjuncts (from @where or a PREDICT
	// statement's WHERE clause): rows failing them are skipped inside the
	// scoring kernel before any tree is traversed.
	Where []db.Condition
	// Agg is the fused aggregation over the predictions (COUNT(*) /
	// GROUP BY prediction); AggNone returns the prediction column.
	Agg AggMode
	// Partition restricts scoring to one stripe of the scanned rows
	// (from @partition = 'k/n'); the zero value scores every row. The
	// scale-out router fans a query out as one sub-query per partition.
	Partition Partition
}

// ParseScoreParams validates an EXEC sp_score_model statement's parameters
// and returns the scoring request they describe.
func ParseScoreParams(ex *db.ExecStmt) (*ScoreRequest, error) {
	return scoreParamsFromMap(ex.Params, true)
}

// scoreParamsFromMap validates the parameter map shared by EXEC
// sp_score_model and SELECT ... FROM PREDICT(...). allowWhere admits the
// @where parameter (the EXEC spelling of the pushed-down filter; PREDICT
// statements use a real WHERE clause instead).
func scoreParamsFromMap(params map[string]db.Literal, allowWhere bool) (*ScoreRequest, error) {
	modelName, ok := params["model"]
	if !ok || !modelName.IsString {
		return nil, fmt.Errorf("pipeline: %s requires @model = '<name>'", ScoreProcName)
	}
	dataName, ok := params["data"]
	if !ok || !dataName.IsString {
		return nil, fmt.Errorf("pipeline: %s requires @data = '<table>'", ScoreProcName)
	}
	for name := range params {
		switch name {
		case "model", "data", "backend", "limit", "timeout", "partition":
		case "where":
			if !allowWhere {
				return nil, fmt.Errorf("pipeline: PREDICT takes a WHERE clause, not a @where parameter")
			}
		default:
			return nil, fmt.Errorf("pipeline: unknown parameter @%s", name)
		}
	}
	req := &ScoreRequest{Model: modelName.S, Data: dataName.S}
	if w, ok := params["where"]; ok {
		if !w.IsString {
			return nil, fmt.Errorf("pipeline: @where must be a string of AND-joined comparisons")
		}
		conds, err := db.ParseConditionList(w.S)
		if err != nil {
			return nil, fmt.Errorf("pipeline: @where: %v", err)
		}
		if err := validateWhere(conds); err != nil {
			return nil, err
		}
		req.Where = conds
	}
	if lim, ok := params["limit"]; ok {
		// Validate the parameter's type before its value so a string-valued
		// @limit reports a type error, not "must be positive".
		if lim.IsString {
			return nil, fmt.Errorf("pipeline: @limit must be a number, got a string")
		}
		n := int(lim.N)
		if n <= 0 {
			return nil, fmt.Errorf("pipeline: @limit must be a positive number")
		}
		req.Limit = n
	}
	if b, ok := params["backend"]; ok {
		if !b.IsString {
			return nil, fmt.Errorf("pipeline: @backend must be a string")
		}
		req.Backend = b.S
	}
	if part, ok := params["partition"]; ok {
		if !part.IsString {
			return nil, fmt.Errorf("pipeline: @partition must be a 'k/n' string")
		}
		p, err := ParsePartition(part.S)
		if err != nil {
			return nil, err
		}
		req.Partition = p
	}
	if to, ok := params["timeout"]; ok {
		// '50ms'-style duration strings, or a bare number of milliseconds.
		if to.IsString {
			d, err := time.ParseDuration(to.S)
			if err != nil {
				return nil, fmt.Errorf("pipeline: @timeout: %v", err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("pipeline: @timeout must be positive")
			}
			req.Timeout = d
		} else {
			if to.N <= 0 {
				return nil, fmt.Errorf("pipeline: @timeout must be positive")
			}
			req.Timeout = time.Duration(to.N * float64(time.Millisecond))
		}
	}
	return req, nil
}

// ExecScoreCtx runs one scoring request end to end under the caller's
// context: the model blob and the input rows come out of the DBMS and the
// stage loop (score) does the rest. The context's deadline and cancellation
// cover the DBMS fetches and every pipeline stage, and reach the engine
// through the backend request. An already-expired context is shed before any
// work happens.
func (p *Pipeline) ExecScoreCtx(ctx context.Context, req *ScoreRequest) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.score(ctx, req)
}

// ExecScoreBatchCtx scores each request on its own, in order: nothing here
// batches any more. The name survives only because the frozen benchmark
// (bench/layers.go) calls it; ROADMAP 2(b) deletes it at the benchmark's next
// re-freeze.
func (p *Pipeline) ExecScoreBatchCtx(ctx context.Context, reqs []*ScoreRequest) ([]*QueryResult, error) {
	results := make([]*QueryResult, len(reqs))
	for i, req := range reqs {
		var err error
		if results[i], err = p.ExecScoreCtx(ctx, req); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// resolvedModel is the model in executable form plus how it was obtained
// ("hit" | "miss" | "coalesced" against the compiled-model cache, "" without
// one).
type resolvedModel struct {
	f        *forest.Forest
	compiled *kernel.Compiled
	stats    forest.Stats
	status   string
}

// resolveModel probes the compiled-model cache and, on a miss, deserializes
// the blob and lowers it to the flat kernel form — exactly once even under
// concurrent cold starts (GetOrCompile's singleflight). Recomputing the blob
// checksum on every query is the invalidation mechanism — a replaced model
// produces a different key and misses, so no DB write-path hook is needed.
func (p *Pipeline) resolveModel(modelName string, blob []byte) (*resolvedModel, error) {
	if p.Cache == nil {
		f, err := model.Unmarshal(blob)
		if err != nil {
			return nil, err
		}
		return &resolvedModel{f: f, stats: f.ComputeStats()}, nil
	}
	key := cacheKey(modelName, blob)
	e, status, evicted, err := p.Cache.GetOrCompile(key, func() (*cacheEntry, error) {
		cf, cerr := model.Unmarshal(blob)
		if cerr != nil {
			return nil, cerr
		}
		cc, cerr := cf.Compile()
		if cerr != nil {
			return nil, cerr
		}
		return &cacheEntry{key: key, forest: cf, compiled: cc, stats: cf.ComputeStats()}, nil
	})
	if reg := p.Obs.Metrics(); reg != nil {
		reg.Counter(MetricModelCacheEventsTotal, helpModelCacheEvents, "event", status).Inc()
		if evicted > 0 {
			reg.Counter(MetricModelCacheEventsTotal, helpModelCacheEvents, "event", "eviction").
				Add(float64(evicted))
		}
	}
	if err != nil {
		return nil, err
	}
	return &resolvedModel{f: e.forest, compiled: e.compiled, stats: e.stats, status: status}, nil
}

// WarmModel loads the named model's blob and ensures its compiled form is
// resident in the model cache, so the first scoring query pays a cache hit
// instead of a deserialize+compile. Returns the cache status ("hit" when it
// was already resident, "miss" when this call compiled it, "nocache" when
// the pipeline has no cache and warming is a no-op). The scale-out router
// fans this out to every shard when a model is registered.
func (p *Pipeline) WarmModel(name string) (string, error) {
	blob, err := p.DB.LoadModelBlob(name)
	if err != nil {
		return "", err
	}
	rm, err := p.resolveModel(name, blob)
	if err != nil {
		return "", err
	}
	if p.Cache == nil {
		return "nocache", nil
	}
	return rm.status, nil
}

// score is the stage loop behind ExecScoreCtx: ONE trace and ONE
// observeQuery per query, opened before anything can fail, then model
// pre-processing, the input fetch, scoring and post-processing — each a
// function under its own span. The blob and the rows both come out of the
// DBMS, the blob first: the model's feature names drive projection pruning,
// so the model is resolved BEFORE any row leaves the column store.
//
// With fusion engaged the selection rides into the backend request so dead
// rows are skipped inside the kernel's block loop, and a fused aggregate asks
// the engine for class counts so the prediction column is never materialized
// (falling back to counting predictions for engines that ignore WantCounts).
// The zero fusion state (no WHERE, AggNone, no partition) reproduces
// pre-fusion behavior bit-for-bit.
func (p *Pipeline) score(ctx context.Context, req *ScoreRequest) (res *QueryResult, err error) {
	tr := p.Obs.StartTrace(ScoreProcName)
	tr.SetAttr("model", req.Model)
	if len(req.Where) > 0 {
		tr.SetAttr("where", db.FormatConditions(req.Where))
	}
	if req.Agg != AggNone {
		tr.SetAttr("agg", req.Agg.String())
	}
	if req.Partition.Active() {
		tr.SetAttr("partition", req.Partition.String())
	}
	// A partition-only selection is a parallelism device, not user-visible
	// query fusion, so it does not flip the Fused flag or the fusion metrics.
	res = &QueryResult{TraceID: tr.ID(), Fused: req.Fused()}
	start := time.Now()
	defer func() { p.observeQuery(tr, start, res, err) }()

	// Model pre-processing: cache probe, blob deserialization, kernel
	// lowering.
	blob, err := p.DB.LoadModelBlob(req.Model)
	if err != nil {
		return nil, err
	}
	var rm *resolvedModel
	costPreproc, err := p.Obs.Stage(tr, StageModelPreproc, func() (err error) {
		rm, err = p.resolveModel(req.Model, blob)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: model pre-processing: %w", err)
	}
	f, compiled, stats, status := rm.f, rm.compiled, rm.stats, rm.status
	// "hit" and "coalesced" both mean the compiled model was already
	// resident (or becoming resident) in the runtime: no blob transfer, no
	// deserialization charge.
	resident := status == "hit" || status == "coalesced"

	// sel marks the rows the kernel scores: those surviving the pushed-down
	// WHERE, narrowed to the request's stripe (nil = all rows).
	end := tr.StartSpan("input fetch")
	data, sel, err := p.fetchInput(req, f.FeatureNames)
	end()
	if err != nil {
		return nil, err
	}
	tr.SetAttr("records", strconv.Itoa(data.NumRecords()))
	records := int64(data.NumRecords())
	features := int64(data.NumFeatures())
	scoredRows := records
	if sel != nil {
		scoredRows = int64(sel.Count())
	}

	// Model scoring on the selected backend. The pre-compiled kernel form
	// rides along so CPU engines skip their per-query lowering; the selection
	// rides along so every engine skips filtered-out rows.
	eng, source, err := p.resolveBackend(req.Backend, stats, records)
	if err != nil {
		return nil, err
	}
	if reg := p.Obs.Metrics(); reg != nil {
		reg.Counter(MetricBackendSelectedTotal,
			"Scoring-backend resolutions by engine and decision source.",
			"backend", eng.Name(), "source", source).Inc()
	}
	if err = ctx.Err(); err != nil {
		return nil, err
	}
	var scored *backend.Result
	costScoring, err := p.Obs.Stage(tr, StageModelScoring, func() (err error) {
		scored, err = eng.Score(&backend.Request{
			Forest: f, Data: data, Compiled: compiled, Stats: &stats,
			Ctx: ctx, Inject: p.Faults,
			Sel: sel, WantCounts: req.Agg != AggNone,
		})
		return err
	})
	if err != nil {
		p.noteScoringError(tr, eng.Name(), err)
		return nil, fmt.Errorf("pipeline: scoring on %s: %w", eng.Name(), err)
	}
	if reg := p.Obs.Metrics(); reg != nil {
		reg.Counter(MetricRowsScannedTotal,
			"Rows read from the column store by scoring queries.").Add(float64(records))
		reg.Counter(MetricRowsScoredTotal,
			"Rows that survived pushed-down filters and were scored.").Add(float64(scoredRows))
		if res.Fused {
			mode := "aggregate"
			switch {
			case len(req.Where) > 0 && req.Agg != AggNone:
				mode = "filter_aggregate"
			case len(req.Where) > 0:
				mode = "filter"
			}
			reg.Counter(MetricFusedQueriesTotal,
				"Fused scoring queries by shape.", "mode", mode).Inc()
		}
	}

	res.Backend, res.RowsScanned, res.RowsScored = eng.Name(), int(records), int(scoredRows)
	costPost, err := p.Obs.Stage(tr, StagePostprocessing, func() error {
		return landResults(req.Agg, sel, scored, res)
	})
	if err != nil {
		return nil, err
	}

	// Simulated Fig. 11 breakdown, in canonical stage order: invocation,
	// inbound transfer (rows always; the blob only when the compiled model is
	// not resident), model pre-processing (checksum verification on hit, full
	// deserialization otherwise), data pre-processing, scoring,
	// post-processing, outbound transfer. Inbound stages charge for every
	// scanned row (the filter runs inside scoring); post-processing and the
	// outbound transfer charge only for rows that were scored, and a fused
	// aggregate returns a histogram instead of a prediction column.
	tl := &res.Timeline
	tl.Add(StagePythonInvocation, sim.KindPipeline, p.Runtime.ProcessInvoke)
	inBytes := records * features * dataset.BytesPerValue
	if !resident {
		inBytes += int64(len(blob))
	}
	p.noteTransfer(tr, "in", "transfer_in_bytes", inBytes)
	tl.Add(StageDataTransfer, sim.KindPipeline, p.Runtime.IPCTime(inBytes))
	if resident {
		tl.Add(StageModelPreproc, sim.KindPipeline, p.Runtime.ModelCacheHitTime(int64(len(blob))))
	} else {
		tl.Add(StageModelPreproc, sim.KindPipeline, p.Runtime.ModelDeserializeTime(int64(len(blob))))
	}
	tl.Add(StageDataPreproc, sim.KindPipeline, p.Runtime.DataPreprocTime(records, features))
	tl.Add(StageModelScoring, sim.KindCompute, scored.Timeline.Total())
	tl.Add(StagePostprocessing, sim.KindPipeline, p.Runtime.PostprocTime(scoredRows))
	outBytes := scoredRows * 4
	if req.Agg != AggNone {
		outBytes = int64(stats.Classes+1) * 16
	}
	p.noteTransfer(tr, "out", "transfer_out_bytes", outBytes)
	tl.Add(StageDataTransfer, sim.KindPipeline, p.Runtime.IPCTime(outBytes))
	res.ScoringDetail = scored.Timeline

	// Attribution in canonical order: the two transfer legs carry the
	// (simulated) byte volumes that crossed the runtime boundary, the three
	// measured stages carry real process-CPU and allocation deltas.
	if p.Obs != nil {
		res.Attribution = obs.Attribution{
			{Stage: StageTransferIn, BytesMoved: inBytes},
			costPreproc,
			costScoring,
			costPost,
			{Stage: StageTransferOut, BytesMoved: outBytes},
		}
	}
	res.CacheHit = status == "hit"
	if p.Cache != nil {
		res.CacheStats = p.Cache.Stats()
	}
	return res, nil
}

// fetchInput reads the request's rows out of the DBMS and builds its
// selection. Projection pruning + @limit pushdown: only the model's feature
// columns, and only the first @limit rows, ever leave the table. With the hot
// path enabled the dataset is a view of the table's own block whenever the
// model reads the table's REAL columns as they stand, and a gathered copy
// otherwise; the baseline deliberately redoes the conversion per query, but
// still prunes columns and bounds rows.
func (p *Pipeline) fetchInput(req *ScoreRequest, featureNames []string) (*dataset.Dataset, *kernel.Selection, error) {
	tbl, err := p.DB.Table(req.Data)
	if err != nil {
		return nil, nil, err
	}
	features := projectionFor(tbl, featureNames)
	var data *dataset.Dataset
	if p.Cache != nil {
		var view bool
		data, view, err = tbl.DatasetSnapshotFor(features, req.Limit)
		if reg := p.Obs.Metrics(); reg != nil && err == nil {
			ev := "miss"
			if view {
				ev = "hit"
			}
			reg.Counter(MetricSnapshotCacheEventsTotal,
				"Scoring inputs served as a view of the table's block (hit) or as a gathered copy (miss).",
				"event", ev).Inc()
		}
	} else {
		data, err = tbl.DatasetFor(features, req.Limit)
	}
	if err != nil {
		return nil, nil, err
	}
	var sel *kernel.Selection
	if req.Partition.Active() {
		sel = kernel.StripeSelection(nil, data.NumRecords(), req.Partition.Index, req.Partition.Count)
	}
	if len(req.Where) > 0 {
		preds, err := buildPredicates(tbl, data, req.Where)
		if err != nil {
			return nil, nil, err
		}
		sel = kernel.FilterSelection(sel, data.NumRecords(), preds, data.X, data.NumFeatures())
	}
	return data, sel, nil
}

// landResults is the post-processing stage: it lands the engine's output in
// the query's result table — the prediction column in one bulk append (with
// the scan ordinals behind it when a WHERE, i.e. Fused, restricted scoring),
// or, for a fused aggregate, the class histogram without ever materializing
// predictions.
func landResults(agg AggMode, sel *kernel.Selection, scored *backend.Result, res *QueryResult) (err error) {
	if agg != AggNone {
		res.Table, err = AggTable(agg, scored.Predictions, scored.ClassCounts)
		return err
	}
	if sel != nil && res.Fused {
		res.ScoredRows = make([]int, sel.Count())
		sel.ForEach(func(row, rank int) { res.ScoredRows[rank] = row })
	}
	res.Predictions = scored.Predictions
	if res.Table, err = db.NewTable("predictions", []db.Column{{Name: "prediction", Type: db.Int64Col}}); err == nil {
		err = res.Table.AppendIntRows(res.Predictions)
	}
	return err
}

// noteTransfer publishes one leg of the simulated runtime-boundary transfer:
// its byte counter {direction}, and the trace attr /debug/queries shows.
func (p *Pipeline) noteTransfer(tr *obs.Trace, direction, attr string, bytes int64) {
	if reg := p.Obs.Metrics(); reg != nil {
		reg.Counter(MetricTransferBytesTotal, "Bytes crossing the runtime boundary by direction.",
			"direction", direction).Add(float64(bytes))
	}
	if tr != nil {
		tr.SetAttr(attr, strconv.FormatInt(bytes, 10))
	}
}

const helpModelCacheEvents = "Compiled-model cache hits, misses and evictions."

// MetricScoringErrorsTotal counts failed engine calls by error class
// {backend, class="deadline"|"canceled"|"injected_fault"|"error"}.
const MetricScoringErrorsTotal = "accelscore_scoring_errors_total"

// ErrorClass buckets an error for metrics and traces: context expiry,
// client cancellation, injected faults, everything else.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case faults.Injected(err):
		return "injected_fault"
	default:
		return "error"
	}
}

// noteScoringError marks the query's trace with the failed engine and error
// class, and counts the failure, so injected faults and deadline hits are
// visible on /metrics and /debug/queries.
func (p *Pipeline) noteScoringError(tr *obs.Trace, engine string, err error) {
	class := ErrorClass(err)
	if reg := p.Obs.Metrics(); reg != nil {
		reg.Counter(MetricScoringErrorsTotal, "Failed engine scoring calls by error class.",
			"backend", engine, "class", class).Inc()
	}
	tr.SetAttr("scoring_error_class", class)
	tr.SetAttr("scoring_engine", engine)
}

// countStatement bumps the statement-kind counter when an observer is
// attached.
func countStatement(o *obs.Observer, kind string) {
	if reg := o.Metrics(); reg != nil {
		reg.Counter(MetricStatementsTotal, "Parsed T-SQL statements by kind.", "kind", kind).Inc()
	}
}

// observeQuery publishes one finished scoring query: status counters, the
// wall-clock and simulated latency histograms, the O/L/C component
// accumulation, cache gauges, and the trace's simulated timelines. It runs
// via defer so error paths are counted exactly once.
func (p *Pipeline) observeQuery(tr *obs.Trace, start time.Time, res *QueryResult, err error) {
	if p.Obs == nil {
		return
	}
	wall := time.Since(start)
	if reg := p.Obs.Registry; reg != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		reg.Counter(MetricQueriesTotal, "Scoring queries by terminal status.", "status", status).Inc()
		if err == nil && res != nil {
			// The exemplar links each latency bucket to the freshest trace
			// that landed in it, so a P99 spike on /metrics resolves to
			// /debug/trace/<id>.
			reg.Histogram(MetricQueryWallSeconds,
				"Measured wall-clock latency of successful scoring queries.", obs.DefBuckets).
				ObserveExemplar(wall.Seconds(), res.TraceID)
			for _, row := range res.Timeline.Aggregate().Rows {
				reg.Histogram(MetricStageSimSeconds,
					"Simulated per-stage latency of the Fig. 11 end-to-end breakdown.",
					obs.DefBuckets, "stage", row.Name).Observe(row.Duration.Seconds())
			}
			if res.Fused {
				for _, row := range res.Timeline.Aggregate().Rows {
					reg.Histogram(MetricFusedStageSimSeconds,
						"Simulated per-stage latency of fused scoring queries.",
						obs.DefBuckets, "stage", row.Name).Observe(row.Duration.Seconds())
				}
			}
			reg.Histogram(MetricBackendSimSeconds,
				"Simulated scoring-stage latency by backend.",
				obs.DefBuckets, "backend", res.Backend).Observe(res.ScoringDetail.Total().Seconds())
			for _, kind := range []sim.Kind{sim.KindOverhead, sim.KindTransfer, sim.KindCompute} {
				if d := res.ScoringDetail.TotalKind(kind); d > 0 {
					reg.Counter(MetricOLCSimSecondsTotal,
						"Simulated scoring time by the Fig. 6 O/L/C taxonomy.",
						"backend", res.Backend, "kind", kind.String()).Add(d.Seconds())
				}
			}
		}
		if p.Cache != nil {
			reg.Gauge(MetricModelCacheEntries, "Compiled models resident in the cache.").
				Set(float64(p.Cache.Len()))
		}
	}
	if tr != nil {
		if err != nil {
			tr.SetAttr("error", err.Error())
		} else if res != nil {
			tr.SetAttr("backend", res.Backend)
			if res.CacheHit {
				tr.SetAttr("model_cache", "hit")
			}
			tr.AddTimeline("simulated end-to-end (Fig. 11)", &res.Timeline)
			tr.AddTimeline("simulated scoring detail (Fig. 7)", &res.ScoringDetail)
		}
		tr.Finish()
	}
}

// resolveBackend maps the @backend parameter to an engine, consulting the
// advisor for "auto" or when unset. The returned source labels the decision
// path for the selection counters: "param", "advisor" or "default".
func (p *Pipeline) resolveBackend(name string, stats forest.Stats, records int64) (backend.Backend, string, error) {
	source := "param"
	if name == "" {
		if p.Advisor != nil {
			name = "auto"
		} else {
			name = p.DefaultBackend
			source = "default"
		}
	}
	if strings.EqualFold(name, "auto") {
		source = "advisor"
		if p.Advisor == nil {
			return nil, "", fmt.Errorf("pipeline: @backend = 'auto' requires an advisor")
		}
		cfg := core.Config{
			Features: stats.Features, Classes: stats.Classes,
			Trees: stats.Trees, Depth: stats.MaxDepth, Records: records,
		}
		d, err := p.Advisor.Decide(cfg)
		if err != nil {
			return nil, "", err
		}
		name = d.Best.Name
		if reg := p.Obs.Metrics(); reg != nil {
			reg.Counter(MetricAdvisorDecisionsTotal,
				"Offload-advisor backend picks.", "backend", name).Inc()
		}
	}
	eng, ok := p.Registry.Get(name)
	if !ok {
		return nil, "", fmt.Errorf("pipeline: backend %q is not registered (have %v)", name, p.Registry.Names())
	}
	return eng, source, nil
}

// Estimate produces the Fig. 11 breakdown for a hypothetical query —
// records rows of a model with the given stats and serialized size — without
// materializing data, using the named backend (or the advisor's choice for
// "auto"/""). This is how the million-record end-to-end rows are generated.
func (p *Pipeline) Estimate(stats forest.Stats, records int64, blobBytes int64, backendName string) (*sim.Timeline, string, error) {
	eng, _, err := p.resolveBackend(backendName, stats, records)
	if err != nil {
		return nil, "", err
	}
	scoring, err := eng.Estimate(stats, records)
	if err != nil {
		return nil, "", err
	}
	features := int64(stats.Features)
	var tl sim.Timeline
	tl.Add(StagePythonInvocation, sim.KindPipeline, p.Runtime.ProcessInvoke)
	tl.Add(StageDataTransfer, sim.KindPipeline, p.Runtime.IPCTime(blobBytes+records*features*dataset.BytesPerValue))
	tl.Add(StageModelPreproc, sim.KindPipeline, p.Runtime.ModelDeserializeTime(blobBytes))
	tl.Add(StageDataPreproc, sim.KindPipeline, p.Runtime.DataPreprocTime(records, features))
	tl.Add(StageModelScoring, sim.KindCompute, scoring.Total())
	tl.Add(StagePostprocessing, sim.KindPipeline, p.Runtime.PostprocTime(records))
	tl.Add(StageDataTransfer, sim.KindPipeline, p.Runtime.IPCTime(records*4))
	if p.Obs != nil {
		if reg := p.Obs.Registry; reg != nil {
			reg.Counter(MetricEstimatesTotal, "Hypothetical-query estimates by backend.",
				"backend", eng.Name()).Inc()
		}
		tr := p.Obs.StartTrace("estimate " + eng.Name())
		tr.SetAttr("backend", eng.Name())
		tr.SetAttr("records", strconv.FormatInt(records, 10))
		tr.AddTimeline("simulated end-to-end (Fig. 11)", &tl)
		tr.AddTimeline("simulated scoring detail (Fig. 7)", scoring)
		tr.Finish()
	}
	return &tl, eng.Name(), nil
}
