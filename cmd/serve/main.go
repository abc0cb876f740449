// Command serve exposes the reproduction as a small web dashboard: each
// paper figure regenerates on request and renders as preformatted text, so
// results can be browsed without a terminal. The server is also the live
// observability surface: every query it runs is metered and traced, and the
// telemetry is exported on /metrics (Prometheus text format), /debug/queries
// (recent queries with stage breakdowns) and /debug/trace/<id> (Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto).
//
// Scoring queries on /query run through the concurrent executor: a bounded
// admission queue (full queue → 503), a worker pool, and group-commit request
// coalescing: a query whose model is idle runs at once, and the same-model
// queries that arrive while it runs merge into one pipeline run that starts
// when it ends (or after -coalesce, whichever is first).
//
// Usage:
//
//	serve [-addr :8080] [-workers N] [-queue N] [-coalesce 2ms] [-maxbatch 8]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/experiments"
	"accelscore/internal/faults"
	"accelscore/internal/obs"
	"accelscore/internal/storage"
)

// StatusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was ready. It keeps canceled queries
// distinguishable from timeouts (504) in logs and metrics.
const StatusClientClosedRequest = 499

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html>
<head>
<title>accelscore — {{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2rem; max-width: 100rem; }
pre  { background: #f6f6f6; padding: 1rem; overflow-x: auto; }
nav a { margin-right: 1rem; }
</style>
</head>
<body>
<h1>accelscore</h1>
<p>Reproduction of "Hardware Acceleration for DBMS ML Scoring: Is It Worth
the Overheads?" (ISPASS 2021). Every figure below is regenerated live from
the calibrated simulators.</p>
<nav>{{range .Nav}}<a href="{{.Href}}">{{.Label}}</a>{{end}}</nav>
<h2>{{.Title}}</h2>
<pre>{{.Body}}</pre>
</body>
</html>`))

type navEntry struct {
	Href  string
	Label string
}

var nav = []navEntry{
	{"/fig/headline", "Headlines"},
	{"/fig/7", "Fig. 7"},
	{"/fig/8", "Fig. 8"},
	{"/fig/9", "Fig. 9"},
	{"/fig/10", "Fig. 10"},
	{"/fig/11", "Fig. 11"},
	{"/fig/ext", "Extensions"},
	{"/fig/hotpath", "Hot path"},
	{"/query", "Run query"},
	{"/debug/queries", "Recent queries"},
	{"/metrics", "Metrics"},
}

// server regenerates figures on demand and runs live queries against a
// persistent demo environment. Scoring queries go through the concurrent
// executor (admission control, worker pool, request coalescing) and hold NO
// server lock — mu only serializes demo-suite figure regeneration, which
// mutates the suite's memoized state. The obs.Observer is concurrency-safe
// and shared by both pipelines, so /metrics and /debug read it without any
// lock.
type server struct {
	mu    sync.Mutex // guards suite mutation in build(); never held across scoring
	suite *experiments.Suite
	demo  *experiments.Demo
	exec  *exec.Executor
	obs   *obs.Observer

	// store is the durability engine when -data-dir is set; nil means the
	// classic in-memory mode. The demo database is journaled through it, so
	// every /sql write is on disk before the response goes out.
	store *storage.Store

	// slo classifies finished scoring queries against per-class latency
	// objectives (-slo flag); nil disables SLO accounting.
	slo *obs.SLOEngine
	// runtimeC is the background runtime-health sampler; nil when disabled.
	runtimeC *obs.RuntimeCollector

	// demoRecords sizes freshly built hot-path demos (tests shrink it).
	demoRecords int

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
	// Attribution enables per-stage resource measurement on the scoring path.
	Attribution bool
	// RuntimeSample is the runtime-health sampling period; 0 disables the
	// collector.
	RuntimeSample time.Duration
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
	o.Attribution = oc.Attribution
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
		suite:       experiments.NewSuite(),
		demo:        demo,
		obs:         o,
		store:       store,
		demoRecords: demoRecords,
		shardID:     oc.ShardID,
		fsync:       "disabled",
	}
	if storeCfg != nil {
		s.fsync = storeCfg.Sync.String()
	}
	s.suite.Pipe.Obs = s.obs
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
		s.slo = obs.NewSLOEngine(o.Metrics(), objs, obs.DefaultSLOTarget)
	}
	if oc.RuntimeSample > 0 {
		s.runtimeC = obs.StartRuntimeCollector(o.Metrics(), oc.RuntimeSample)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/fig/", s.handleFig)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/sql", s.handleSQL)
	mux.HandleFunc("/score", s.handleScore)
	mux.HandleFunc("/warm", s.handleWarm)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	// net/http/pprof under the same logging middleware and bounded route
	// labels as everything else — the continuous-profiling surface: live CPU
	// profiles, heap snapshots and execution traces from a serving process.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, s.withLogging(mux), nil
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
	coalesce := flag.Duration("coalesce", 2*time.Millisecond,
		"longest a batch forming behind a busy model may wait; 0 disables")
	maxBatch := flag.Int("maxbatch", 8, "max queries merged into one coalesced scoring run")
	deadline := flag.Duration("deadline", 0,
		"default per-query deadline (0 = none); an @timeout in the SQL or ?timeout= on /query overrides it")
	faultSpec := flag.String("faults", "",
		"deterministic fault-injection plan, e.g. 'CPU_SKLearn:invoke:busy:p=0.2;FPGA:compute:hang=50ms:once=3'")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed")
	dataDir := flag.String("data-dir", "",
		"durable data directory (snapshot + WAL); empty runs fully in memory")
	fsync := flag.String("fsync", "always",
		"WAL sync policy: always (fsync per commit), batch (group commit), none (benchmarks only)")
	fsyncWindow := flag.Duration("fsync-window", 2*time.Millisecond,
		"group-commit window for -fsync=batch")
	compactBytes := flag.Int64("compact-bytes", 0,
		"WAL size triggering snapshot compaction (0 = default 64MiB, negative disables)")
	demoRecords := flag.Int("demo-records", 0, "demo table rows (0 = default 2000)")
	sloSpec := flag.String("slo", "",
		"per-class latency objectives, e.g. 'interactive=50ms,batch=2s' (empty disables SLO accounting)")
	attrib := flag.Bool("attrib", true,
		"measure per-stage CPU/allocation attribution on every scoring query")
	runtimeSample := flag.Duration("runtime-sample", obs.DefaultRuntimeSampleInterval,
		"runtime health (GC, heap, goroutines, scheduler latency) sampling period; 0 disables")
	shardID := flag.String("shard-id", "",
		"shard name in a scale-out tier; tags /score results and /healthz")
	paceScale := flag.Float64("pace-scale", 0,
		"pace scoring batches to this multiple of their simulated total (0 disables); "+
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
			SyncWindow:   *fsyncWindow,
			CompactBytes: *compactBytes,
		}
	}

	s, handler, err := newServer(*demoRecords, exec.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CoalesceWindow:  *coalesce,
		MaxBatch:        *maxBatch,
		DefaultDeadline: *deadline,
		PaceScale:       *paceScale,
	}, *faultSpec, *faultSeed, storeCfg, obsConfig{
		SLOSpec:       *sloSpec,
		Attribution:   *attrib,
		RuntimeSample: *runtimeSample,
		ShardID:       *shardID,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("accelscore dashboard listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// The HTTP server has stopped accepting requests; now drain the
		// executor — stop admission, seal the batches still forming, wait for
		// in-flight scoring (the remaining shutdown budget aborts
		// stragglers).
		if err := s.exec.Close(shutdownCtx); err != nil {
			log.Printf("executor drain: %v", err)
		}
		// With the executor drained no query can reach the database, so the
		// durable store can flush its final fsync and release the WAL.
		if err := s.Close(); err != nil {
			log.Printf("store close: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}
}

// HTTP telemetry metric names.
const (
	// MetricHTTPRequestsTotal counts requests by route and status code.
	MetricHTTPRequestsTotal = "accelscore_http_requests_total"
	// MetricHTTPRequestSeconds is the request latency histogram by route.
	MetricHTTPRequestSeconds = "accelscore_http_request_seconds"
)

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routeLabel maps a request path to a bounded metric label so an attacker
// probing random URLs cannot blow up metric cardinality.
func routeLabel(path string) string {
	switch {
	case path == "/":
		return "/"
	case path == "/query":
		return "/query"
	case path == "/sql":
		return "/sql"
	case path == "/score":
		return "/score"
	case path == "/warm":
		return "/warm"
	case path == "/healthz":
		return "/healthz"
	case path == "/metrics":
		return "/metrics"
	case path == "/debug/queries":
		return "/debug/queries"
	case strings.HasPrefix(path, "/debug/trace/"):
		return "/debug/trace/:id"
	case strings.HasPrefix(path, "/debug/pprof"):
		// One label for the whole pprof tree: profile names are bounded but
		// there is no reason to spend a series per profile.
		return "/debug/pprof/:profile"
	case strings.HasPrefix(path, "/fig/"):
		return "/fig/:fig"
	default:
		return "other"
	}
}

// withLogging wraps the mux with request logging and HTTP-level metrics.
func (s *server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		route := routeLabel(r.URL.Path)
		s.obs.Metrics().Counter(MetricHTTPRequestsTotal,
			"HTTP requests served, by route and status code.",
			"route", route, "code", fmt.Sprint(sw.code)).Inc()
		s.obs.Metrics().Histogram(MetricHTTPRequestSeconds,
			"HTTP request latency in seconds, by route.",
			obs.DefBuckets, "route", route).Observe(elapsed.Seconds())
		log.Printf("%s %s %d %v", r.Method, r.URL.Path, sw.code, elapsed.Round(time.Microsecond))
	})
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(w, "Index", "Pick a figure from the navigation bar above.\n\n"+
		"Figures 7-11 mirror the paper's evaluation section; Extensions holds\n"+
		"the dynamic-scheduling, LogCA and calibration-sensitivity studies.\n\n"+
		"Observability: \"Run query\" scores the demo table through the\n"+
		"instrumented pipeline; /metrics exposes Prometheus counters and\n"+
		"latency histograms; /debug/queries lists recent queries with their\n"+
		"per-stage breakdowns and downloadable Chrome traces.")
}

func (s *server) handleFig(w http.ResponseWriter, r *http.Request) {
	fig := strings.TrimPrefix(r.URL.Path, "/fig/")
	body, err := s.build(fig)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.render(w, "Figure "+fig, body)
}

// handleQuery runs the canonical demo scoring query through the concurrent
// executor — no server lock — under the REQUEST's context: the client
// disconnecting cancels queued work (499), a ?timeout= duration becomes the
// query's @timeout and maps expiry to 504, and a full admission queue sheds
// the request with 503. Concurrent requests for the same model may coalesce
// into one pipeline run.
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
		_, status := classifyError(err)
		http.Error(w, err.Error(), status)
		return
	}
	var sb strings.Builder
	sb.WriteString("query: " + sql + "\n\n")
	fmt.Fprintf(&sb, "backend          %s\n", res.Backend)
	if res.FallbackFrom != "" {
		fmt.Fprintf(&sb, "degraded from    %s (%s)\n", res.FallbackFrom, res.FallbackReason)
	}
	if res.Retries > 0 {
		fmt.Fprintf(&sb, "retries          %d\n", res.Retries)
	}
	fmt.Fprintf(&sb, "records scored   %d\n", len(res.Predictions))
	fmt.Fprintf(&sb, "model cache      hit=%v\n", res.CacheHit)
	fmt.Fprintf(&sb, "coalesced batch  %d\n", res.BatchSize)
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
	s.render(w, "Run query", sb.String())
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

// handleSQL executes one SQL statement against the demo database and answers
// in JSON. The statement comes from ?q= (GET) or the request body (POST).
// This is the write surface the restart-chaos harness drives: a 200 here is
// a durability acknowledgement. EXEC/PREDICT statements are rejected — the
// scoring path with admission control lives on /query.
func (s *server) handleSQL(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" && r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeSQLJSON(w, http.StatusBadRequest, sqlResponse{Error: "reading body: " + err.Error()})
			return
		}
		sql = strings.TrimSpace(string(body))
	}
	if sql == "" {
		writeSQLJSON(w, http.StatusBadRequest, sqlResponse{Error: "no statement: pass ?q= or a POST body"})
		return
	}
	tbl, st, err := s.demo.DB.Query(sql)
	if err != nil {
		writeSQLJSON(w, http.StatusBadRequest, sqlResponse{Error: err.Error()})
		return
	}
	switch st.(type) {
	case *db.ExecStmt, *db.PredictStmt:
		writeSQLJSON(w, http.StatusBadRequest,
			sqlResponse{Error: "scoring statements go to /query, not /sql"})
		return
	}
	resp := sqlResponse{OK: true}
	if tbl != nil {
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
	writeSQLJSON(w, http.StatusOK, resp)
}

func writeSQLJSON(w http.ResponseWriter, code int, resp sqlResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("sql response: %v", err)
	}
}

// handleHealthz reports liveness plus identity and the durability state:
// which shard this process is (scale-out tier), which build is running,
// whether a store is attached, what recovery found at boot, and the current
// WAL size. The restart-chaos harness polls it to decide the server is up
// and recovered; the router's health probe reads it per shard.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status      string                `json:"status"`
		ShardID     string                `json:"shard_id,omitempty"`
		GitDescribe string                `json:"git_describe"`
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
		GitDescribe: gitDescribe(),
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
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(h); err != nil {
		log.Printf("healthz: %v", err)
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.Metrics().WritePrometheus(w); err != nil {
		log.Printf("metrics: %v", err)
	}
}

// handleDebugQueries lists the tracer's retained queries, newest first, with
// wall-clock and simulated stage breakdowns.
func (s *server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	recent := s.obs.Tracer.Recent()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d recent queries (newest first, ring capacity %d)\n\n",
		len(recent), s.obs.Tracer.Capacity())
	for _, tr := range recent { // Recent is already newest-first
		snap := tr.Snapshot()
		status := "running"
		if snap.Done {
			status = "done"
			if snap.Attrs["error"] != "" {
				status = "error: " + snap.Attrs["error"]
			}
		}
		fmt.Fprintf(&sb, "%s  %-22s wall %-12v %s\n",
			snap.ID, snap.Name, snap.Wall.Round(time.Microsecond), status)
		for k, v := range snap.Attrs {
			if k == "error" {
				continue
			}
			fmt.Fprintf(&sb, "    %-26s %s\n", k, v)
		}
		for _, span := range snap.WallSpans {
			fmt.Fprintf(&sb, "    wall  %-26s %v\n", span.Name, span.Duration.Round(time.Microsecond))
		}
		for _, c := range snap.Costs {
			fmt.Fprintf(&sb, "    cost  %-26s cpu=%-10v alloc=%dB/%d objs moved=%dB\n",
				c.Stage, c.CPUTime.Round(time.Microsecond), c.AllocBytes, c.AllocObjects, c.BytesMoved)
		}
		for _, track := range snap.Tracks {
			fmt.Fprintf(&sb, "    track %s (total %v)\n", track.Name, track.Total)
			for _, span := range track.Spans {
				fmt.Fprintf(&sb, "      [%-8s] %-26s %v\n", span.Kind, span.Name, span.Duration)
			}
		}
		fmt.Fprintf(&sb, "    download: /debug/trace/%s\n\n", snap.ID)
	}
	if len(recent) == 0 {
		sb.WriteString("No queries traced yet — visit /query or /fig/hotpath first.\n")
	}
	s.render(w, "Recent queries", sb.String())
}

// handleDebugTrace serves one retained trace as downloadable Chrome
// trace-event JSON.
func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		http.Error(w, "trace id required: /debug/trace/<id>", http.StatusBadRequest)
		return
	}
	tr, ok := s.obs.Tracer.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("trace %q not retained (ring keeps the last %d)",
			id, s.obs.Tracer.Capacity()), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".json"))
	if err := tr.WriteChromeTrace(w); err != nil {
		log.Printf("trace %s: %v", id, err)
	}
}

// build regenerates one figure's text rendering. Callers hold no lock; build
// serializes access to the shared suite itself.
func (s *server) build(fig string) (string, error) {
	if fig == "hotpath" {
		// A fresh demo per request keeps the cold/warm contrast visible; it
		// shares the server's observer so its queries land in /metrics and
		// /debug/queries too.
		demo, err := experiments.NewDemo(s.demoRecords)
		if err != nil {
			return "", err
		}
		demo.Pipe.Obs = s.obs
		return demo.HotPathReport()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch fig {
	case "7":
		rows, err := s.suite.Fig7()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig7(rows), nil
	case "8":
		var sb strings.Builder
		for _, shape := range []experiments.DatasetShape{experiments.IrisShape, experiments.HiggsShape} {
			res, err := s.suite.Fig8(shape)
			if err != nil {
				return "", err
			}
			sb.WriteString(experiments.RenderFig8(res))
			sb.WriteString("\n")
		}
		return sb.String(), nil
	case "9":
		panels, err := s.suite.Fig9()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig9(panels), nil
	case "10":
		panels, err := s.suite.Fig10()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig10(panels), nil
	case "11":
		rows, err := s.suite.Fig11()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig11(rows), nil
	case "headline":
		hs, err := s.suite.Headlines()
		if err != nil {
			return "", err
		}
		return experiments.RenderHeadlines(hs), nil
	case "ext":
		sc, err := s.suite.SchedulerExperiment(300, 1)
		if err != nil {
			return "", err
		}
		fits, err := s.suite.LogCAExperiment()
		if err != nil {
			return "", err
		}
		sens, err := s.suite.Sensitivity([]float64{0.5, 1, 2})
		if err != nil {
			return "", err
		}
		return experiments.RenderScheduler(sc) + "\n" +
			experiments.RenderLogCA(fits) + "\n" +
			experiments.RenderSensitivity(sens), nil
	default:
		return "", fmt.Errorf("unknown figure %q", fig)
	}
}

func (s *server) render(w http.ResponseWriter, title, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := pageTmpl.Execute(w, struct {
		Title string
		Body  string
		Nav   []navEntry
	}{Title: title, Body: body, Nav: nav})
	if err != nil {
		log.Printf("render: %v", err)
	}
}
