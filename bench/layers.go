package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/kernel"
	"accelscore/internal/model"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
	"accelscore/internal/storage"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were set, which is the order of
// the README's catalogue.
type metricSet struct {
	names []string
	m     map[string]metric
}

// MarshalJSON writes the set as a JSON object keyed by metric name.
func (s metricSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.m) }

func (s *metricSet) set(name string, value float64, unit string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: value, Unit: unit}
}

// windowCounters is what the load generator and /proc saw across the
// untraced window, beside the /metrics deltas.
type windowCounters struct {
	length time.Duration
	// ops counts verified operations between the two scrapes, those that
	// finished just after the window included: their cost is in the deltas.
	ops int
	// insertStmts counts INSERT statements, each sent to every shard.
	insertStmts         int
	shardCPU, routerCPU time.Duration
	clientCPU           time.Duration
	shardRSS, routerRSS int64 // bytes, largest shard
}

// windowLayers derives the per-layer figures that come from the deltas of
// the shards' (summed) and the router's /metrics pages across the window.
func windowLayers(out *metricSet, shards, rt promSeries, c windowCounters) {
	ops := float64(c.ops)
	out.set("serve.cpu_ms_per_query", ratio(ms(c.shardCPU), ops), "ms")
	out.set("router.cpu_ms_per_query", ratio(ms(c.routerCPU), ops), "ms")
	out.set("bench.client_cpu_ms_per_query", ratio(ms(c.clientCPU), ops), "ms")
	out.set("serve.rss_mb", float64(c.shardRSS)/(1<<20), "MB")
	out.set("router.rss_mb", float64(c.routerRSS)/(1<<20), "MB")
	out.set("serve.gc_pause_ms_per_s",
		shards["accelscore_runtime_gc_pause_seconds_total"]*1e3/c.length.Seconds(), "ms/s")

	out.set("exec.batch_size_mean", shards.mean("accelscore_exec_coalesced_batch_size"), "count")
	out.set("exec.rejected", shards["accelscore_exec_rejected_total"], "count")

	event := func(family, ev string) float64 { return shards[family+`{event="`+ev+`"}`] }
	const modelCache, snapCache = "accelscore_model_cache_events_total", "accelscore_snapshot_cache_events_total"
	modelHits := event(modelCache, "hit")
	out.set("pipeline.model_cache_hit_ratio",
		ratio(modelHits, modelHits+event(modelCache, "miss")+event(modelCache, "coalesced")), "ratio")
	// The pipeline brackets three stages with thread-CPU samples; the
	// invocation, transfer and data pre-processing stages of Fig. 11 exist
	// only on the simulated clock.
	for _, st := range []struct{ key, stage string }{
		{"model_preproc", pipeline.StageModelPreproc},
		{"scoring", pipeline.StageModelScoring},
		{"postproc", pipeline.StagePostprocessing},
	} {
		out.set("pipeline.stage_cpu_us."+st.key,
			ratio(shards[`accelscore_stage_cpu_seconds_sum{stage="`+st.stage+`"}`]*1e6, ops), "us")
	}
	snapHits := event(snapCache, "hit")
	out.set("db.snapshot_hit_ratio", ratio(snapHits, snapHits+event(snapCache, "miss")), "ratio")

	shardInserts := float64(c.insertStmts * numShards)
	out.set("storage.wal_bytes_per_row",
		ratio(shards["accelscore_wal_bytes_total"], shardInserts*insertRowsPerStmt), "bytes")
	out.set("storage.fsyncs_per_insert", ratio(shards["accelscore_wal_fsyncs_total"], shardInserts), "count")
	out.set("storage.fsync_mean_ms", shards.mean("accelscore_wal_fsync_seconds")*1e3, "ms")

	out.set("router.straggler_gap_ms", rt.mean("accelscore_router_straggler_gap_seconds")*1e3, "ms")
	var lat float64
	for k := 0; k < numShards; k++ {
		lat += rt.mean(fmt.Sprintf(`accelscore_router_shard_latency_seconds{shard="%d"}`, k))
	}
	out.set("router.shard_latency_ms", lat/numShards*1e3, "ms")
}

// traceStatement is the statement the traced pass follows through the
// layers: the workload's own, with small_point's @limit pinned to the middle
// draw so that byte counts and the simulated total repeat exactly.
func traceStatement(w workload, sz sizes) string {
	switch w.name {
	case "small_point":
		return pointSQL(pointLimits[1])
	case "scan_plain":
		return scanPlainSQL
	case "scan_fused":
		return scanFusedSQL(sz.fusedLimit)
	default:
		return ingestScoreSQL(0)
	}
}

func parseScoring(sql string) (*pipeline.ScoreRequest, error) {
	st, err := db.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *db.ExecStmt:
		return pipeline.ParseScoreParams(s)
	case *db.PredictStmt:
		return pipeline.ParsePredictStmt(s)
	}
	return nil, fmt.Errorf("not a scoring statement: %s", sql)
}

// tracePass follows one statement of the workload's shape from the outside
// in, single-threaded, after the window: HTTP probes against the idle fleet,
// then each layer's public entry point in-process on a fresh storage.Open of
// the seeded directory, called with what the layer above would pass it (the
// shard-side sub-request for partition 0 of 2). Each call is a span; a
// metric is the median over its repetitions. cl is client 0 of the window,
// so probe replies are still checked against the oracle.
func tracePass(ctx context.Context, rec *recorder, out *metricSet, cl *client, in *inputs, dir string) error {
	w, sql := cl.w, traceStatement(cl.w, cl.sz)
	ingest := w.name == "ingest_then_score"
	req, err := parseScoring(sql)
	if err != nil {
		return err
	}
	sub := *req
	sub.Partition = pipeline.Partition{Index: 0, Count: numShards}

	// --- HTTP probes, single client, fleet otherwise idle ---
	var tierDurs []float64
	cl.sched.limits = []int{pointLimits[1]} // the window is over: pin the draw
	for i := 0; i < 20; i++ {
		o, err := cl.do(ctx)
		if err != nil {
			return fmt.Errorf("tier probe: %w", err)
		}
		start := o.sent.Sub(rec.epoch)
		rec.add(span{name: "tier.query_http", query: i, start: start, end: start + o.score})
		tierDurs = append(tierDurs, float64(o.score))
	}
	tier := time.Duration(median(tierDurs))
	var bodies [numShards]string
	for k := range bodies {
		wreq := router.WireRequest(&sub)
		wreq.Partition = pipeline.Partition{Index: k, Count: numShards}.String()
		body, err := json.Marshal(wreq)
		if err != nil {
			return err
		}
		bodies[k] = string(body)
	}
	var beforeScore func() error
	if ingest {
		beforeScore = func() error { _, err := cl.insertNext(ctx); return err }
	}
	scoreHTTP, err := rec.measure("serve.score_http", "tier.query_http", beforeScore, func() error {
		_, err := post(ctx, cl.http, cl.fleet.shards[0].url+"/score", bodies[0])
		return err
	})
	if err != nil {
		return err
	}
	// The router sends its sub-requests at once and waits for the slowest;
	// the shards share this host's cores, so each is slower in company than
	// shard 0 was alone just above.
	scatter, err := rec.measure("serve.score_scatter", "tier.query_http", beforeScore, func() error {
		var errs [numShards]error
		var wg sync.WaitGroup
		for k, sh := range cl.fleet.shards {
			wg.Add(1)
			go func(k int, url string) {
				defer wg.Done()
				_, errs[k] = post(ctx, cl.http, url+"/score", bodies[k])
			}(k, sh.url)
		}
		wg.Wait()
		return errors.Join(errs[:]...)
	})
	if err != nil {
		return err
	}

	// --- in-process, a fresh store over the seeded directory ---
	st, d, err := storage.Open(storage.Config{Dir: dir, Sync: storage.SyncBatch})
	if err != nil {
		return err
	}
	defer st.Close()
	o := obs.NewObserver()
	o.Attribution = true // serve's default
	p := newPipeline(d, o)

	// Each ingest score follows an INSERT; the in-process store takes the
	// same statements the fleet took, from the start of client 0's schedule.
	stmts, nextStmt := cl.sched.inserts, 0
	insertInto := func(c int) func() error {
		return func() error {
			_, _, err := d.Query(stmts[c][nextStmt%len(stmts[c])])
			nextStmt++
			return err
		}
	}
	var afterInsert func() error
	if ingest {
		afterInsert = insertInto(0)
	}

	parse, err := rec.measure("db.parse", "router.local_query", nil, func() error {
		_, err := parseScoring(sql)
		return err
	})
	if err != nil {
		return err
	}

	modelMiss, err := rec.measure("pipeline.model_miss", "", func() error {
		p.Cache = pipeline.NewModelCache(pipeline.DefaultModelCacheCapacity)
		return nil
	}, func() error {
		_, err := p.WarmModel(req.Model)
		return err
	})
	if err != nil {
		return err
	}
	modelHit, err := rec.measure("pipeline.model_hit", "pipeline.exec", nil, func() error {
		_, err := p.WarmModel(req.Model)
		return err
	})
	if err != nil {
		return err
	}

	// The model in the forms the pipeline hands to an engine.
	blob, err := d.LoadModelBlob(req.Model)
	if err != nil {
		return err
	}
	f, err := model.Unmarshal(blob)
	if err != nil {
		return err
	}
	compiled, err := f.Compile()
	if err != nil {
		return err
	}
	stats := f.ComputeStats()
	tbl, err := d.Table(req.Data)
	if err != nil {
		return err
	}

	// The seeded tables carry the model's features in schema order, so the
	// pipeline's projection is the feature list itself.
	data, _, err := tbl.DatasetSnapshotFor(f.FeatureNames, req.Limit)
	if err != nil {
		return err
	}
	fetch, err := rec.measure("db.fetch", "pipeline.exec", afterInsert, func() error {
		data, _, err = tbl.DatasetSnapshotFor(f.FeatureNames, req.Limit)
		return err
	})
	if err != nil {
		return err
	}

	rows, features := data.NumRecords(), data.NumFeatures()
	var sel *kernel.Selection
	selection, err := rec.measure("kernel.selection", "pipeline.exec", nil, func() error {
		var base *kernel.Selection
		if len(req.Where) > 0 {
			preds, err := featurePredicates(req.Where, data.FeatureNames)
			if err != nil {
				return err
			}
			base = kernel.BuildSelection(rows, preds, data.X, features)
		}
		sel = kernel.SelectionFromFunc(rows, func(row int) bool {
			return (base == nil || base.Selected(row)) && sub.Partition.Keep(row)
		})
		return nil
	})
	if err != nil {
		return err
	}
	fused := req.Agg != pipeline.AggNone
	predict, err := rec.measure("kernel.predict", "engines.score", nil, func() error {
		if fused {
			compiled.PredictAggregate(data.X, features, rows, sel, make([]int64, max(compiled.NumClasses(), 2)), 0)
		} else {
			compiled.PredictSel(data.X, features, sel, make([]int, sel.Count()), 0)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// One run through the pipeline names the engine the advisor (or the
	// statement) resolves to, and gives the wire its two sub-results.
	var subResults [numShards]*pipeline.QueryResult
	for k := range subResults {
		part := sub
		part.Partition.Index = k
		res, err := p.ExecScoreBatchCtx(ctx, []*pipeline.ScoreRequest{&part})
		if err != nil {
			return err
		}
		subResults[k] = res[0]
	}
	eng, ok := p.Registry.Get(subResults[0].Backend)
	if !ok {
		return fmt.Errorf("engine %q not registered", subResults[0].Backend)
	}
	engine, err := rec.measure("engines.score", "pipeline.exec", nil, func() error {
		_, err := eng.Score(&backend.Request{Forest: f, Data: data, Compiled: compiled, Stats: &stats,
			Ctx: ctx, Sel: sel, WantCounts: fused})
		return err
	})
	if err != nil {
		return err
	}

	pipe, err := rec.measure("pipeline.exec", "exec.submit", afterInsert, func() error {
		_, err := p.ExecScoreBatchCtx(ctx, []*pipeline.ScoreRequest{&sub})
		return err
	})
	if err != nil {
		return err
	}

	// serve's flag defaults.
	ex := exec.New(p, exec.Config{QueueDepth: 64, CoalesceWindow: 2 * time.Millisecond, MaxBatch: 8})
	submit, err := rec.measure("exec.submit", "serve.score_http", afterInsert, func() error {
		_, err := ex.SubmitScore(ctx, &sub)
		return err
	})
	if cerr := ex.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// The wire, as serve's /score writes it and the router's HTTPShard
	// reads it.
	var wire [numShards]bytes.Buffer
	for k := 1; k < numShards; k++ {
		if err := encodeWire(&wire[k], k, sub.Agg, subResults[k]); err != nil {
			return err
		}
	}
	wireEncode, err := rec.measure("router.wire_encode", "serve.score_http", nil, func() error {
		wire[0].Reset()
		return encodeWire(&wire[0], 0, sub.Agg, subResults[0])
	})
	if err != nil {
		return err
	}
	var decoded [numShards]*router.Result
	for k := range decoded {
		decoded[k] = new(router.Result)
		if err := json.Unmarshal(wire[k].Bytes(), decoded[k]); err != nil {
			return err
		}
	}
	wireDecode, err := rec.measure("router.wire_decode", "tier.query_http", nil, func() error {
		var r router.Result
		return json.NewDecoder(bytes.NewReader(wire[0].Bytes())).Decode(&r)
	})
	if err != nil {
		return err
	}
	var merged *router.Merged
	merge, err := rec.measure("router.merge", "tier.query_http", nil, func() error {
		merged, err = router.Merge(sub.Agg, decoded[:])
		return err
	})
	if err != nil {
		return err
	}
	var response bytes.Buffer
	responseEncode, err := rec.measure("router.response_encode", "tier.query_http", nil, func() error {
		response.Reset()
		return json.NewEncoder(&response).Encode(queryReply(merged))
	})
	if err != nil {
		return err
	}

	locals := make([]router.Backend, numShards)
	for k := range locals {
		locals[k] = &router.Local{Name: fmt.Sprintf("shard-%d", k), Pipe: p}
	}
	rt, err := router.New(router.Config{Backends: locals, Obs: obs.NewObserver()})
	if err != nil {
		return err
	}
	localQuery, err := rec.measure("router.local_query", "", afterInsert, func() error {
		_, err := rt.Query(ctx, sql, router.QueryOptions{})
		return err
	})
	rt.Close()
	if err != nil {
		return err
	}

	// The write path, on events_1 whatever the workload: a journaled INSERT
	// under group commit, the snapshot conversion it forces, the cached
	// snapshot after it, and the same INSERT without a journal.
	ev, err := d.Table("events_1")
	if err != nil {
		return err
	}
	evFeatures := in.forest["higgs_small"].FeatureNames
	var stmt *db.InsertStmt
	parseInsert := func() error {
		s, err := db.Parse(stmts[1][nextStmt%len(stmts[1])])
		nextStmt++
		if err != nil {
			return err
		}
		stmt = s.(*db.InsertStmt)
		return nil
	}
	insertJournaled, err := rec.measure("storage.insert_journaled", "", parseInsert, func() error {
		_, err := d.InsertRows(stmt)
		return err
	})
	if err != nil {
		return err
	}
	snapMiss, err := rec.measure("db.snapshot_miss", "", insertInto(1), func() error {
		_, _, err := ev.DatasetSnapshotFor(evFeatures, 0)
		return err
	})
	if err != nil {
		return err
	}
	snapHit, err := rec.measure("db.snapshot_hit", "", nil, func() error {
		_, _, err := ev.DatasetSnapshotFor(evFeatures, 0)
		return err
	})
	if err != nil {
		return err
	}
	mem := db.New()
	memTable, err := db.NewTable("events_1", ev.Columns)
	if err != nil {
		return err
	}
	if err := mem.CreateTable(memTable); err != nil {
		return err
	}
	insertPlain, err := rec.measure("db.insert", "storage.insert_journaled", parseInsert, func() error {
		_, err := mem.InsertRows(stmt)
		return err
	})
	if err != nil {
		return err
	}

	// --- the catalogue ---
	out.set("tier.query_http_us", us(tier), "us")
	out.set("serve.score_http_us", us(scoreHTTP), "us")
	out.set("serve.score_scatter_us", us(scatter), "us")
	out.set("router.self_us", us(tier-scatter), "us")
	out.set("serve.self_us", us(scoreHTTP-submit-wireEncode), "us")
	out.set("exec.submit_us", us(submit), "us")
	out.set("exec.wait_us", us(submit-pipe), "us")
	out.set("pipeline.exec_us", us(pipe), "us")
	out.set("pipeline.self_us", us(pipe-engine-fetch-selection), "us")
	out.set("pipeline.model_hit_us", us(modelHit), "us")
	out.set("pipeline.model_miss_us", us(modelMiss), "us")
	out.set("db.parse_us", us(parse), "us")
	out.set("db.fetch_us", us(fetch), "us")
	out.set("db.snapshot_hit_us", us(snapHit), "us")
	out.set("db.snapshot_miss_us", us(snapMiss), "us")
	out.set("db.insert_us", us(insertPlain), "us")
	out.set("storage.insert_journaled_us", us(insertJournaled), "us")
	out.set("kernel.predict_us", us(predict), "us")
	out.set("kernel.rows_per_s", ratio(float64(sel.Count()), predict.Seconds()), "1/s")
	out.set("kernel.selection_us", us(selection), "us")
	out.set("engines.score_us", us(engine), "us")
	out.set("engines.self_us", us(engine-predict), "us")
	out.set("router.wire_encode_us", us(wireEncode), "us")
	out.set("router.wire_decode_us", us(wireDecode), "us")
	out.set("router.wire_bytes", float64(wire[0].Len()), "bytes")
	out.set("router.merge_us", us(merge), "us")
	out.set("router.response_encode_us", us(responseEncode), "us")
	out.set("router.response_bytes", float64(response.Len()), "bytes")
	out.set("router.local_query_us", us(localQuery), "us")
	// What no directly timed leaf on the blocking chain explains: HTTP,
	// scheduling, queue and coalesce waits, and the glue between layers.
	leaves := parse + fetch + selection + predict + wireEncode + wireDecode + merge + responseEncode
	out.set("trace.unaccounted_share", 1-ratio(float64(leaves), float64(tier)), "ratio")
	return nil
}

// featurePredicates lowers WHERE conjuncts over model features the way the
// pipeline does; the benchmark's statements filter on nothing else.
func featurePredicates(where []db.Condition, featureNames []string) ([]kernel.Predicate, error) {
	var preds []kernel.Predicate
	for _, c := range where {
		op, err := kernel.ParsePredOp(c.Op)
		if err != nil {
			return nil, err
		}
		feat := -1
		for j, name := range featureNames {
			if name == c.Column {
				feat = j
			}
		}
		if feat < 0 {
			return nil, fmt.Errorf("WHERE column %q is not a model feature", c.Column)
		}
		preds = append(preds, kernel.Predicate{Feature: feat, Op: op, Value: c.Value.N})
	}
	return preds, nil
}

func encodeWire(buf *bytes.Buffer, shard int, agg pipeline.AggMode, res *pipeline.QueryResult) error {
	r, err := router.WireResult(fmt.Sprintf("shard-%d", shard), agg, res)
	if err != nil {
		return err
	}
	return json.NewEncoder(buf).Encode(r)
}

// queryReply fills the router's /query envelope from a merged result as the
// router's handler does. Merge leaves the trace id and straggler gap zero,
// so the encoded size repeats exactly.
func queryReply(m *router.Merged) router.QueryResponse {
	spans := m.Timeline.Spans()
	tl := make([]router.WireSpan, len(spans))
	for i, s := range spans {
		tl[i] = router.WireSpan{Name: s.Name, Kind: int(s.Kind), NS: int64(s.Duration)}
	}
	return router.QueryResponse{
		OK: true, Backend: m.Backend, Predictions: m.Predictions, ScoredRows: m.ScoredRows,
		ClassCounts: m.ClassCounts, RowsScanned: m.RowsScanned, RowsScored: m.RowsScored,
		CacheHit: m.CacheHit, Shards: m.Shards, StragglerGapNS: int64(m.StragglerGap),
		SimTotalNS: int64(m.Timeline.Total()), Timeline: tl, TraceID: m.TraceID,
	}
}
