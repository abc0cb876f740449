// Package exec is the concurrent scoring executor: the multi-query hot path
// in front of the analytics pipeline. It replaces "one global mutex around
// ExecQuery" serving with a bounded admission queue (backpressure instead of
// unbounded pileup), a worker pool, per-device concurrency limits that reuse
// the scheduling model's device taxonomy (all CPU engines share the host
// CPU; the GPU and the FPGA each serialize), and the resilience policy of
// resilience.go. One query is one pipeline run, as in the paper, which bills
// its fixed costs (Fig. 11) to the query that incurred them: cross-query
// request coalescing was measured and retired (DESIGN §7), so a reply —
// its simulated timeline included — never depends on who it arrived with.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/sched"
)

// ErrRejected is returned when the admission queue is full: the caller
// should shed load (HTTP 503) rather than queue unboundedly.
var ErrRejected = errors.New("exec: admission queue full, query rejected")

// ErrClosed is returned by Submit after Close has stopped admission.
var ErrClosed = errors.New("exec: executor is closed")

// Metric names the executor publishes into the pipeline's observer.
const (
	// MetricQueueDepth gauges queries admitted but not yet executing
	// (waiting for a worker or a device).
	MetricQueueDepth = "accelscore_exec_queue_depth"
	// MetricInflight gauges queries currently executing in the pipeline.
	MetricInflight = "accelscore_exec_inflight_queries"
	// MetricRejectedTotal counts queries shed at admission.
	MetricRejectedTotal = "accelscore_exec_rejected_total"
	// MetricFallbacksTotal counts graceful degradations to the CPU engine
	// {from, to, reason="deadline"|"fault"}.
	MetricFallbacksTotal = "accelscore_exec_fallbacks_total"
	// MetricDeadlineExceededTotal counts queries that terminated because
	// their deadline expired.
	MetricDeadlineExceededTotal = "accelscore_exec_deadline_exceeded_total"
	// MetricCanceledTotal counts queries that terminated because the client
	// canceled (disconnected).
	MetricCanceledTotal = "accelscore_exec_canceled_total"
	// MetricExpiredShedTotal counts queries shed because their deadline had
	// already expired before they reached a worker.
	MetricExpiredShedTotal = "accelscore_exec_expired_shed_total"
	// MetricFaultsInjectedTotal counts injector firings
	// {backend, boundary, kind} (wired by WireFaultMetrics).
	MetricFaultsInjectedTotal = "accelscore_faults_injected_total"
	// MetricPredictedRunSeconds gauges the run time the deadline fallback
	// last predicted for {device}: the mean of its recent successful runs,
	// seconds; 0 before the first one.
	MetricPredictedRunSeconds = "accelscore_exec_predicted_run_seconds"
)

// Config tunes the executor. The zero value gets sensible defaults from New.
type Config struct {
	// Workers bounds concurrently executing queries (default
	// max(1, GOMAXPROCS)).
	Workers int
	// QueueDepth bounds queries in the system — waiting plus executing.
	// Beyond it, ExecQuery fails fast with ErrRejected (default 64).
	QueueDepth int
	// CoalesceWindow is ignored: request coalescing is gone. The field stays
	// only because the frozen benchmark (bench/layers.go) sets it; ROADMAP
	// 2(b) deletes it at the benchmark's next re-freeze.
	CoalesceWindow time.Duration
	// MaxBatch is ignored, and stays for the same reason (bench/layers.go,
	// ROADMAP 2(b)).
	MaxBatch int
	// AttemptTimeout bounds a scoring run so a hung device is detected and
	// the query degraded to the CPU engine while its deadline still has
	// budget (0 = runs are bounded by the query deadline only).
	AttemptTimeout time.Duration
	// DefaultDeadline bounds queries that carry neither an @timeout
	// parameter nor a caller deadline (0 = unbounded).
	DefaultDeadline time.Duration
	// PaceScale, when positive, paces successful scoring queries to their
	// simulated timeline: after the real computation finishes, the device
	// token is held until PaceScale x the query's simulated total has
	// elapsed since the attempt started. This makes a shard's wall-clock
	// behave like the calibrated device it models — the scale-out bench
	// uses it so measured multi-shard scaling reflects the simulated
	// device times plus the REAL serving-tier overheads (HTTP, scatter,
	// merge), instead of N processes fighting over the host's cores.
	// 0 disables pacing (the default; production serving is unpaced).
	PaceScale float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Executor runs queries concurrently against one Pipeline.
type Executor struct {
	pipe *pipeline.Pipeline
	cfg  Config

	admission chan struct{}                  // in-system token, cap QueueDepth
	workers   chan struct{}                  // executing token, cap Workers
	devices   map[sched.Device]chan struct{} // per-device scoring tokens

	admitted atomic.Int64 // queries holding an admission token
	running  atomic.Int64 // queries currently executing

	met    *execMetrics // nil without a registry
	tracer *obs.Tracer  // nil-safe

	// rootCtx parents every query context; Close cancels it to abort
	// in-flight work that outlives the drain deadline.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	closeMu sync.RWMutex   // guards closed against concurrent wg.Add
	closed  bool           // admission stopped by Close
	wg      sync.WaitGroup // one count per query inside Submit

	// runTime holds each device's recent successful run times: what the
	// deadline fallback predicts from. Built in New, read-only after.
	runTime map[sched.Device]*obs.LatencyWindow
}

// execMetrics holds the instruments every query touches, resolved once in
// New so the hot path skips the registry's name check, label
// canonicalization and mutex.
type execMetrics struct {
	queueDepth, inflight *obs.Gauge
}

// New builds an executor over the pipeline, publishing telemetry into the
// observer the pipeline carries at this point.
func New(pipe *pipeline.Pipeline, cfg Config) *Executor {
	cfg = cfg.withDefaults()
	rootCtx, rootCancel := context.WithCancel(context.Background())
	e := &Executor{
		pipe:      pipe,
		cfg:       cfg,
		admission: make(chan struct{}, cfg.QueueDepth),
		workers:   make(chan struct{}, cfg.Workers),
		// Concurrent scoring per hardware device: CPU engines share host
		// cores, the accelerators serialize.
		devices: map[sched.Device]chan struct{}{
			sched.DeviceCPU:  make(chan struct{}, cfg.Workers),
			sched.DeviceGPU:  make(chan struct{}, 1),
			sched.DeviceFPGA: make(chan struct{}, 1),
		},
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		runTime:    make(map[sched.Device]*obs.LatencyWindow),
	}
	for d := range e.devices {
		e.runTime[d] = new(obs.LatencyWindow)
	}
	if pipe.Obs != nil {
		e.tracer = pipe.Obs.Tracer
	}
	if reg := pipe.Obs.Metrics(); reg != nil {
		e.met = &execMetrics{
			queueDepth: reg.Gauge(MetricQueueDepth, "Queries admitted but not yet executing."),
			inflight:   reg.Gauge(MetricInflight, "Queries currently executing."),
		}
	}
	return e
}

// ExecQuery parses and runs one T-SQL statement through the concurrent hot
// path with no caller deadline. See Submit.
func (e *Executor) ExecQuery(sql string) (*pipeline.QueryResult, error) {
	return e.Submit(context.Background(), sql)
}

// Submit parses and runs one T-SQL statement through the concurrent hot
// path under the caller's context. Scoring queries run under the resilience
// policy (score); everything else takes a worker slot and executes directly.
// A ScoreRequest's @timeout (or the configured DefaultDeadline) becomes a
// context deadline covering queueing, the run and any fallback. Returns
// ErrRejected when the admission queue is full, ErrClosed after Close, and
// the context's error when the caller cancels or the deadline expires.
func (e *Executor) Submit(ctx context.Context, sql string) (res *pipeline.QueryResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() { e.noteTerminal(err) }()
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	st, err := e.pipe.Parse(sql)
	if err != nil {
		return nil, err
	}
	// Scoring statements: EXEC sp_score_model and the fused
	// SELECT ... FROM PREDICT(...).
	req, err := pipeline.ScoreRequestOf(e.pipe.Obs, st)
	if err != nil {
		return nil, err
	}
	if req != nil {
		return e.score(ctx, req)
	}

	// Non-scoring statements execute in the DBMS under a worker slot; the
	// db layer's own fine-grained locks make them safe alongside scoring.
	qctx, cancel := e.queryContext(ctx, 0)
	defer cancel()
	select {
	case e.workers <- struct{}{}:
	case <-qctx.Done():
		return nil, qctx.Err()
	}
	e.noteRunning(1)
	defer func() {
		e.noteRunning(-1)
		<-e.workers
	}()
	return e.pipe.ExecStatementCtx(qctx, st)
}

// admit performs the shared Submit prologue: refuse after Close, take an
// admission token (shed with ErrRejected when the queue is full), publish
// the gauges, and shed work whose deadline already expired. The returned
// release must be deferred by the caller; it returns the token and settles
// the wait-group count.
func (e *Executor) admit(ctx context.Context) (func(), error) {
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return nil, ErrClosed
	}
	e.wg.Add(1)
	e.closeMu.RUnlock()

	select {
	case e.admission <- struct{}{}:
	default:
		if reg := e.pipe.Obs.Metrics(); reg != nil {
			reg.Counter(MetricRejectedTotal, "Queries shed at admission (queue full).").Inc()
		}
		e.wg.Done()
		return nil, ErrRejected
	}
	e.admitted.Add(1)
	e.publishGauges()
	release := func() {
		e.admitted.Add(-1)
		e.publishGauges()
		<-e.admission
		e.wg.Done()
	}

	// Deadline-aware admission: work whose budget is already gone is shed
	// before it costs a worker or a device token.
	if cerr := ctx.Err(); cerr != nil {
		e.noteExpiredShed()
		release()
		return nil, cerr
	}
	return release, nil
}

// SubmitScore runs one pre-validated scoring request through the concurrent
// hot path: the same admission, device-token and fallback machinery as
// Submit, minus the SQL parse. The scale-out shard endpoint uses it to
// serve router sub-queries, whose partition rides in req.Partition.
func (e *Executor) SubmitScore(ctx context.Context, req *pipeline.ScoreRequest) (res *pipeline.QueryResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() { e.noteTerminal(err) }()
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.score(ctx, req)
}

// score runs one admitted scoring request under its deadline and a worker
// slot; the device token and any fallback happen inside runResilient.
func (e *Executor) score(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	qctx, cancel := e.queryContext(ctx, req.Timeout)
	defer cancel()
	select {
	case e.workers <- struct{}{}:
	case <-qctx.Done():
		return nil, qctx.Err()
	}
	defer func() { <-e.workers }()
	e.noteRunning(1)
	defer e.noteRunning(-1)
	return e.runResilient(qctx, req)
}

// queryContext layers the query's own @timeout (or the configured default
// deadline) on top of the caller's context, and ties the result to the
// executor root so Close can abort stragglers.
func (e *Executor) queryContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	var qctx context.Context
	var cancel context.CancelFunc
	switch {
	case timeout > 0:
		qctx, cancel = context.WithTimeout(ctx, timeout)
	case e.cfg.DefaultDeadline > 0:
		if _, has := ctx.Deadline(); !has {
			qctx, cancel = context.WithTimeout(ctx, e.cfg.DefaultDeadline)
		} else {
			qctx, cancel = context.WithCancel(ctx)
		}
	default:
		qctx, cancel = context.WithCancel(ctx)
	}
	stop := context.AfterFunc(e.rootCtx, cancel)
	return qctx, func() { stop(); cancel() }
}

// noteTerminal counts queries that ended in cancellation or deadline expiry
// so the two failure modes are distinguishable on /metrics.
func (e *Executor) noteTerminal(err error) {
	if err == nil {
		return
	}
	reg := e.pipe.Obs.Metrics()
	if reg == nil {
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		reg.Counter(MetricDeadlineExceededTotal, "Queries terminated by deadline expiry.").Inc()
	case errors.Is(err, context.Canceled):
		reg.Counter(MetricCanceledTotal, "Queries terminated by client cancellation.").Inc()
	}
}

// noteExpiredShed counts a query dropped because its deadline had already
// expired before any work was done on its behalf.
func (e *Executor) noteExpiredShed() {
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Counter(MetricExpiredShedTotal, "Queries shed with an already-expired deadline.").Inc()
	}
}

// Close stops admission (Submit returns ErrClosed) and waits for in-flight
// queries to drain. If ctx expires first the executor root is canceled —
// aborting remaining work at its next boundary — and Close still waits for
// the (now unblocked) stragglers before returning the context error.
// Close is idempotent.
func (e *Executor) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.rootCancel()
		return nil
	case <-ctx.Done():
		e.rootCancel()
		<-done
		return ctx.Err()
	}
}

// noteRunning moves n queries between the queued and executing states.
func (e *Executor) noteRunning(n int64) {
	e.running.Add(n)
	e.publishGauges()
}

// publishGauges exports the queue-depth and in-flight gauges.
func (e *Executor) publishGauges() {
	if e.met == nil {
		return
	}
	e.met.queueDepth.Set(float64(e.Queued()))
	e.met.inflight.Set(float64(e.running.Load()))
}

// Queued returns queries admitted but not yet executing (for tests and
// status pages; the gauges carry the same values).
func (e *Executor) Queued() int64 {
	q := e.admitted.Load() - e.running.Load()
	if q < 0 {
		q = 0
	}
	return q
}

// Running returns queries currently executing.
func (e *Executor) Running() int64 { return e.running.Load() }
