// Command serve is one shard of the serving tier: the scoring API over the
// concurrent executor (/score and /warm for the router, /query and /sql for
// clients and harnesses, /healthz), with the figure dashboard of
// internal/experiments mounted at / and /fig/ so results can be browsed
// without a terminal. The server is also the live observability surface:
// every query it runs is metered and traced, and the telemetry is exported
// by the ops endpoints it shares with cmd/router (internal/httpapi):
// /metrics (Prometheus text format), /debug/queries (recent queries with
// stage breakdowns), /debug/trace/<id> (Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto) and /debug/pprof/*.
//
// Scoring queries on /query run through the concurrent executor: a bounded
// admission queue (full queue → 503), a worker pool, per-device limits and
// the CPU fallback for a faulted or hung device. One query is one pipeline
// run.
//
// Usage:
//
//	serve [-addr :8080] [-workers N] [-queue N] [-deadline 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/experiments"
	"accelscore/internal/faults"
	"accelscore/internal/httpapi"
	"accelscore/internal/kernel"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
	"accelscore/internal/storage"
)

// server runs live queries against a persistent demo environment. Scoring
// queries go through the concurrent executor (admission control, worker
// pool, resilience) and hold NO server lock. The obs.Observer is
// concurrency-safe and shared with the dashboard's pipelines, so /metrics
// and /debug read it without any lock.
type server struct {
	demo *experiments.Demo
	exec *exec.Executor
	obs  *obs.Observer

	// store is the durability engine when -data-dir is set; nil means the
	// classic in-memory mode. The demo database is journaled through it, so
	// every /sql write is on disk before the response goes out.
	store *storage.Store

	// slo classifies finished scoring queries against per-class latency
	// objectives (-slo flag); nil disables SLO accounting.
	slo *obs.SLOEngine
	// runtimeC is the background runtime-health sampler, stopped by Close.
	runtimeC *obs.RuntimeCollector

	// shardID names this process in the scale-out tier (-shard-id); it tags
	// /score results and /healthz so the router and operators can tell
	// replicas apart. Empty outside a sharded deployment.
	shardID string
	// fsync is the WAL sync policy spelling for /healthz ("disabled" when
	// running in memory).
	fsync string
}

// obsConfig bundles the observability knobs of newServer.
type obsConfig struct {
	// SLOSpec is the -slo flag value ("interactive=50ms,batch=2s"); empty
	// disables the SLO engine.
	SLOSpec string
	// ShardID names this process in a scale-out deployment (-shard-id).
	ShardID string
}

// newServer builds the shared state and the routed handler. demoRecords <= 0
// means the default demo size; zero-valued cfg fields get executor defaults.
// faultSpec, when non-empty, arms a deterministic fault-injection plan (see
// internal/faults) on the demo pipeline with the given seed. storeCfg, when
// non-nil, opens (recovering if needed) a durable store and journals the
// demo database through it.
func newServer(demoRecords int, cfg exec.Config, faultSpec string, faultSeed uint64, storeCfg *storage.Config, oc obsConfig) (*server, http.Handler, error) {
	o := obs.NewObserver()
	var demo *experiments.Demo
	var store *storage.Store
	if storeCfg != nil {
		sc := *storeCfg
		sc.Metrics = o.Metrics()
		st, d, err := storage.Open(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("opening data dir %s: %w", sc.Dir, err)
		}
		ri := st.Recovery()
		log.Printf("storage: recovered %s (snapshot=%v lsn=%d replayed=%d dropped=%dB)",
			sc.Dir, ri.SnapshotLoaded, ri.LastLSN, ri.ReplayedRecords, ri.DroppedWALBytes)
		demo, err = experiments.NewDemoOn(d, demoRecords)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		store = st
	} else {
		var err error
		demo, err = experiments.NewDemo(demoRecords)
		if err != nil {
			return nil, nil, err
		}
	}
	s := &server{
		demo:    demo,
		obs:     o,
		store:   store,
		shardID: oc.ShardID,
		fsync:   "disabled",
	}
	if storeCfg != nil {
		s.fsync = storeCfg.Sync.String()
	}
	s.demo.Pipe.Obs = s.obs
	if faultSpec != "" {
		rules, err := faults.Parse(faultSpec)
		if err != nil {
			return nil, nil, err
		}
		inj, err := faults.NewInjector(faultSeed, rules)
		if err != nil {
			return nil, nil, err
		}
		s.demo.Pipe.Faults = exec.WireFaultMetrics(inj, s.obs.Metrics())
	}
	s.exec = exec.New(demo.Pipe, cfg)
	if oc.SLOSpec != "" {
		objs, err := obs.ParseSLOSpec(oc.SLOSpec)
		if err != nil {
			return nil, nil, err
		}
		s.slo = obs.NewSLOEngine(o.Metrics(), objs)
	}
	s.runtimeC = obs.StartRuntimeCollector(o.Metrics(), obs.DefaultRuntimeSampleInterval)

	mux := http.NewServeMux()
	dash := experiments.NewDashboard(o, demoRecords)
	mux.Handle("/", dash)
	mux.Handle("/fig/", dash)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/sql", s.handleSQL)
	shard := router.ShardHandler(s)
	mux.Handle("/score", shard)
	mux.Handle("/warm", shard)
	mux.HandleFunc("/healthz", s.handleHealthz)
	httpapi.MountOps(mux, o)
	return s, httpapi.Instrument(o.Metrics(), mux), nil
}

// Close stops the runtime sampler and releases the durable store, if any.
// Call after the executor drains so no scoring query races the WAL teardown.
func (s *server) Close() error {
	if s.runtimeC != nil {
		s.runtimeC.Stop()
		s.runtimeC = nil
	}
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent query workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "admission queue depth; beyond it queries get 503")
	deadline := flag.Duration("deadline", 0,
		"default per-query deadline (0 = none); an @timeout in the SQL or ?timeout= on /query overrides it")
	faultSpec := flag.String("faults", "",
		"deterministic fault-injection plan, e.g. 'CPU_SKLearn:invoke:busy:p=0.2;FPGA:compute:hang=50ms:once=3'")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed")
	dataDir := flag.String("data-dir", "",
		"durable data directory (snapshot + WAL); empty runs fully in memory")
	fsync := flag.String("fsync", "always",
		"WAL sync policy: always (fsync per commit), batch (group commit), none (benchmarks only)")
	compactBytes := flag.Int64("compact-bytes", 0,
		"WAL size triggering snapshot compaction (0 = default 64MiB, negative disables)")
	demoRecords := flag.Int("demo-records", 0, "demo table rows (0 = default 2000)")
	sloSpec := flag.String("slo", "",
		"per-class latency objectives, e.g. 'interactive=50ms,batch=2s' (empty disables SLO accounting)")
	shardID := flag.String("shard-id", "",
		"shard name in a scale-out tier; tags /score results and /healthz")
	paceScale := flag.Float64("pace-scale", 0,
		"pace scoring queries to this multiple of their simulated total (0 disables); "+
			"with -workers 1 each shard behaves like one simulated device")
	flag.Parse()

	var storeCfg *storage.Config
	if *dataDir != "" {
		policy, err := storage.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		storeCfg = &storage.Config{
			Dir:          *dataDir,
			Sync:         policy,
			CompactBytes: *compactBytes,
		}
	}

	s, handler, err := newServer(*demoRecords, exec.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		PaceScale:       *paceScale,
	}, *faultSpec, *faultSeed, storeCfg, obsConfig{
		SLOSpec: *sloSpec,
		ShardID: *shardID,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Once the HTTP server has stopped accepting requests, drain the executor
	// — stop admission, wait for in-flight scoring (the remaining shutdown
	// budget aborts stragglers). With it
	// drained no query can reach the database, so the durable store can flush
	// its final fsync and release the WAL.
	err = httpapi.Serve(*addr, handler, 60*time.Second, s.exec.Close,
		func(context.Context) error { return s.Close() })
	if err != nil {
		log.Fatal(err)
	}
}

// handleQuery runs the canonical demo scoring query through the concurrent
// executor — no server lock — under the REQUEST's context: the client
// disconnecting cancels queued work, a ?timeout= duration becomes the
// query's @timeout, and a full admission queue sheds the request — canceled,
// timeout and rejected in router.StatusOf's table.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := experiments.DemoQuery
	if to := r.URL.Query().Get("timeout"); to != "" {
		d, err := time.ParseDuration(to)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad timeout %q: want a positive Go duration like 50ms", to),
				http.StatusBadRequest)
			return
		}
		sql += fmt.Sprintf(", @timeout='%s'", d)
	}
	class := r.URL.Query().Get("class")
	if class == "" {
		class = "default"
	}
	queryStart := time.Now()
	res, err := s.exec.Submit(r.Context(), sql)
	good := s.slo.Observe(class, time.Since(queryStart), err == nil)
	if err != nil {
		http.Error(w, err.Error(), router.StatusOf(classify(err)))
		return
	}
	var sb strings.Builder
	sb.WriteString("query: " + sql + "\n\n")
	fmt.Fprintf(&sb, "backend          %s\n", res.Backend)
	if res.FallbackFrom != "" {
		fmt.Fprintf(&sb, "degraded from    %s (%s)\n", res.FallbackFrom, res.FallbackReason)
	}
	fmt.Fprintf(&sb, "records scored   %d\n", len(res.Predictions))
	fmt.Fprintf(&sb, "model cache      hit=%v\n", res.CacheHit)
	fmt.Fprintf(&sb, "simulated total  %v\n", res.Timeline.Total().Round(time.Microsecond))
	if s.slo != nil {
		verdict := "bad (over objective)"
		if good {
			verdict = "good (within objective)"
		}
		fmt.Fprintf(&sb, "slo class        %s: %s\n", class, verdict)
	}
	fmt.Fprintf(&sb, "trace            %s (download: /debug/trace/%s)\n", res.TraceID, res.TraceID)
	sb.WriteString("\nsimulated per-stage breakdown (Fig. 11 stages):\n")
	for _, row := range res.Timeline.Aggregate().Rows {
		fmt.Fprintf(&sb, "  %-28s %v\n", row.Name, row.Duration)
	}
	if len(res.Attribution) > 0 {
		sb.WriteString("\nmeasured per-stage attribution (cpu / alloc / moved):\n")
		for _, c := range res.Attribution {
			fmt.Fprintf(&sb, "  %-28s cpu=%-10v alloc=%dB/%d objs moved=%dB\n",
				c.Stage, c.CPUTime.Round(time.Microsecond), c.AllocBytes, c.AllocObjects, c.BytesMoved)
		}
		tot := res.Attribution.Total()
		fmt.Fprintf(&sb, "  %-28s cpu=%-10v alloc=%dB/%d objs moved=%dB\n",
			"total", tot.CPUTime.Round(time.Microsecond), tot.AllocBytes, tot.AllocObjects, tot.BytesMoved)
	}
	sb.WriteString("\nRe-run this page to watch the warm path: the model cache hit flips\n" +
		"to true and model pre-processing collapses to checksum cost. The\n" +
		"/metrics page accumulates every run.")
	experiments.WritePage(w, "Run query", sb.String())
}

// sqlResponse is the JSON envelope for /sql. For SELECT statements Columns,
// Types and Rows carry the result table; for DML they are empty and OK
// acknowledges that the statement is applied — and, when a durable store is
// attached, already on disk per the -fsync policy.
type sqlResponse struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Types   []string `json:"types,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
}

// handleSQL executes one SQL statement against the demo database, under the
// request's context, and answers in JSON. The statement comes from ?q= (GET)
// or the request body (POST). This is the write surface the restart-chaos
// harness drives: a 200 here is a durability acknowledgement. EXEC/PREDICT
// statements are refused before anything executes — the scoring path with
// admission control lives on /query.
func (s *server) handleSQL(w http.ResponseWriter, r *http.Request) {
	fail := func(code int, msg string) { httpapi.WriteJSON(w, code, sqlResponse{Error: msg}) }
	sql, code, err := httpapi.Statement(w, r, "q")
	if err != nil {
		fail(code, err.Error())
		return
	}
	st, err := s.demo.Pipe.Parse(sql)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if req, err := pipeline.ScoreRequestOf(s.obs, st); req != nil || err != nil {
		fail(http.StatusBadRequest, "scoring statements go to /query, not /sql")
		return
	}
	res, err := s.demo.Pipe.ExecStatementCtx(r.Context(), st)
	if err != nil {
		fail(router.StatusOf(classify(err)), err.Error())
		return
	}
	resp := sqlResponse{OK: true}
	if tbl := res.Table; tbl != nil {
		for _, c := range tbl.Columns {
			resp.Columns = append(resp.Columns, c.Name)
			resp.Types = append(resp.Types, c.Type.String())
		}
		for _, row := range tbl.Rows() {
			out := make([]any, len(row))
			for i, v := range row {
				switch tbl.Columns[i].Type {
				case db.Float32Col:
					out[i] = float64(v.F) // exact: float32 embeds in float64
				case db.Int64Col:
					out[i] = v.I
				case db.TextCol:
					out[i] = v.S
				default:
					out[i] = v.B // JSON-encodes as base64
				}
			}
			resp.Rows = append(resp.Rows, out)
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness plus identity and the durability state:
// which shard this process is (scale-out tier), which build is running,
// which walk its scoring kernel runs (kernel.Walk), whether a store is
// attached, what recovery found at boot, and the current WAL size. The
// restart-chaos harness polls it to decide the server is up and recovered;
// the router's health probe reads it per shard.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status      string                `json:"status"`
		ShardID     string                `json:"shard_id,omitempty"`
		GitDescribe string                `json:"git_describe"`
		KernelWalk  string                `json:"kernel_walk"`
		Fsync       string                `json:"fsync"`
		Durability  string                `json:"durability"`
		Recovery    *storage.RecoveryInfo `json:"recovery,omitempty"`
		WALBytes    int64                 `json:"wal_bytes,omitempty"`
		// Executor load, so the router's health probe can see an
		// overloaded-but-alive shard building a backlog.
		InFlight   int64 `json:"inflight"`
		QueueDepth int64 `json:"queue_depth"`
	}
	h := health{
		Status:      "ok",
		ShardID:     s.shardID,
		GitDescribe: httpapi.GitDescribe(),
		KernelWalk:  kernel.Walk(),
		Fsync:       s.fsync,
		Durability:  "disabled",
		InFlight:    s.exec.Running(),
		QueueDepth:  s.exec.Queued(),
	}
	if s.store != nil {
		h.Durability = "enabled"
		ri := s.store.Recovery()
		h.Recovery = &ri
		h.WALBytes = s.store.WALSize()
	}
	httpapi.WriteJSON(w, http.StatusOK, h)
}
