package exec_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

// newEnv builds an observed, cache-enabled pipeline over the IRIS table and
// a trained model, ready to wrap in an Executor.
func newEnv(t testing.TB, trees, depth, rows int) (*pipeline.Pipeline, *forest.Forest, *dataset.Dataset) {
	t.Helper()
	tb := platform.New()
	d := db.New()
	data := dataset.Iris().Replicate(rows)
	tbl, err := db.TableFromDataset("iris", data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees:  trees,
		Tree:      forest.TrainConfig{MaxDepth: depth},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreModel("iris_rf", f); err != nil {
		t.Fatal(err)
	}
	return &pipeline.Pipeline{
		DB:       d,
		Runtime:  hw.DefaultRuntime(),
		Registry: tb.Registry,
		Advisor:  tb.Advisor,
		Cache:    pipeline.NewModelCache(8),
		Obs:      obs.NewObserver(),
	}, f, data
}

const scoreSQL = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"

const blockSQL = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='BLOCK'"

// blockingBackend parks every Score call until released, so tests can hold
// queries in the executing state deterministically. A send on release lets
// exactly one parked run go; closing it opens the gate for good. With inner
// set the released run scores on that engine, so predictions are real.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
	inner   backend.Backend
}

// newBlocking registers a BLOCK backend on p; entered is buffered for every
// run a test in this package parks at once.
func newBlocking(t testing.TB, p *pipeline.Pipeline, inner string) *blockingBackend {
	t.Helper()
	bb := &blockingBackend{entered: make(chan struct{}, 4), release: make(chan struct{})}
	if inner != "" {
		eng, ok := p.Registry.Get(inner)
		if !ok {
			t.Fatalf("engine %q not registered", inner)
		}
		bb.inner = eng
	}
	if err := p.Registry.Register(bb); err != nil {
		t.Fatal(err)
	}
	return bb
}

func (b *blockingBackend) Name() string { return "BLOCK" }

func (b *blockingBackend) Score(req *backend.Request) (*backend.Result, error) {
	b.entered <- struct{}{}
	<-b.release
	if b.inner != nil {
		return b.inner.Score(req)
	}
	preds := make([]int, req.Data.NumRecords())
	var tl sim.Timeline
	tl.Add("blocked scoring", sim.KindCompute, time.Millisecond)
	return &backend.Result{Predictions: preds, Timeline: tl}, nil
}

func (b *blockingBackend) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	var tl sim.Timeline
	tl.Add("blocked scoring", sim.KindCompute, time.Millisecond)
	return &tl, nil
}

// awaitEntered waits for one more run to park inside the backend.
func (b *blockingBackend) awaitEntered(t testing.TB) {
	t.Helper()
	select {
	case <-b.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no run reached the backend")
	}
}

// waitFor spins until cond holds; the conditions here become true as soon as
// the goroutines under test get scheduled.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// submitAll launches one ExecQuery per slot and returns the slices the
// results land in plus the wait for all of them.
func submitAll(e *exec.Executor, sql string, k int) ([]*pipeline.QueryResult, []error, func()) {
	results, errs := make([]*pipeline.QueryResult, k), make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.ExecQuery(sql)
		}(i)
	}
	return results, errs, wg.Wait
}

// TestCoalesceMergesConcurrentQueries parks one run, then launches exactly
// MaxBatch queries for its (model, backend): the batch must seal on the
// MaxBatch joiner — while the first run is still executing and long before
// the window — execute as ONE pipeline run with a single cache probe, and
// fan correct predictions back out with per-query amortized timelines and
// distinct trace IDs.
func TestCoalesceMergesConcurrentQueries(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 200)
	bb := newBlocking(t, p, "CPU_SKLearn")
	const k = 4
	e := exec.New(p, exec.Config{
		Workers:        2,
		QueueDepth:     16,
		CoalesceWindow: time.Minute, // the MaxBatch seal must win
		MaxBatch:       k,
	})
	want := f.PredictBatch(data)

	_, firstErrs, firstDone := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t) // the key is busy
	results, errs, done := submitAll(e, blockSQL, k)
	bb.awaitEntered(t) // the full batch started on the second worker
	close(bb.release)
	firstDone()
	done()
	if firstErrs[0] != nil {
		t.Fatal(firstErrs[0])
	}

	traceIDs := map[string]bool{}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		res := results[i]
		if res.BatchSize != k {
			t.Fatalf("query %d: BatchSize = %d, want %d", i, res.BatchSize, k)
		}
		if len(res.Predictions) != len(want) {
			t.Fatalf("query %d: %d predictions, want %d", i, len(res.Predictions), len(want))
		}
		for j := range want {
			if res.Predictions[j] != want[j] {
				t.Fatalf("query %d: prediction %d = %d, want %d", i, j, res.Predictions[j], want[j])
			}
		}
		if res.TraceID == "" || traceIDs[res.TraceID] {
			t.Fatalf("query %d: trace ID %q empty or duplicated", i, res.TraceID)
		}
		traceIDs[res.TraceID] = true
		// The fixed invocation charge is split k ways — the amortization
		// the coalescer exists for.
		wantInvoke := p.Runtime.ProcessInvoke / k
		if got := res.Timeline.Component(pipeline.StagePythonInvocation); got != wantInvoke {
			t.Fatalf("query %d: invocation share %v, want %v", i, got, wantInvoke)
		}
	}
	// One probe by the parked run, one by the whole batch.
	if st := p.Cache.Stats(); st.Hits+st.Misses+st.Coalesced != 2 {
		t.Fatalf("batch should probe the cache once: %v", st)
	}
	if got := e.Queued(); got != 0 {
		t.Fatalf("queued after drain = %d", got)
	}
}

// TestCoalesceWindowSealsSingleton: a lone query under an armed coalescing
// window completes and reduces exactly to the uncoalesced result shape.
func TestCoalesceWindowSealsSingleton(t *testing.T) {
	p, f, data := newEnv(t, 4, 6, 120)
	e := exec.New(p, exec.Config{CoalesceWindow: 20 * time.Millisecond, MaxBatch: 8})
	res, err := e.ExecQuery(scoreSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", res.BatchSize)
	}
	want := f.PredictBatch(data)
	for j := range want {
		if res.Predictions[j] != want[j] {
			t.Fatalf("prediction %d differs", j)
		}
	}
}

// TestIdleLeaderDoesNotWaitOutWindow: with nothing executing for its key a
// query has nothing to amortize against, so it runs at once however long the
// window is.
func TestIdleLeaderDoesNotWaitOutWindow(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 120)
	e := exec.New(p, exec.Config{CoalesceWindow: 5 * time.Second, MaxBatch: 8})
	req := &pipeline.ScoreRequest{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"}
	start := time.Now()
	res, err := e.SubmitScore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("lone query took %v under a 5s window: the idle leader waited", took)
	}
	if res.BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", res.BatchSize)
	}
	if e.Forming() != 0 {
		t.Fatalf("idle path left %d queries in a forming batch", e.Forming())
	}
}

// TestBatchFormsBehindBusyKey: queries that arrive while their key is
// executing queue into one batch, and that batch starts — as ONE run — the
// moment the run ahead of it ends, not at MaxBatch and not at the window.
func TestBatchFormsBehindBusyKey(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p, "")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 16, CoalesceWindow: time.Minute, MaxBatch: 8})

	_, firstErrs, firstDone := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t)
	const k = 3
	results, errs, done := submitAll(e, blockSQL, k)
	waitFor(t, "the batch to form", func() bool { return e.Forming() == k })
	select {
	case <-bb.entered:
		t.Fatal("the forming batch started while its key was still executing")
	default:
	}

	bb.release <- struct{}{} // the first run ends ...
	bb.awaitEntered(t)       // ... and the batch behind it starts
	bb.release <- struct{}{}
	firstDone()
	done()
	if firstErrs[0] != nil {
		t.Fatal(firstErrs[0])
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].BatchSize != k {
			t.Fatalf("query %d: BatchSize = %d, want %d", i, results[i].BatchSize, k)
		}
	}
}

// TestChainedSealTakesSingleton: ONE query queued behind a run starts when
// that run ends. (The old policy chained only batches of two or more and
// left a singleton to wait out the window.)
func TestChainedSealTakesSingleton(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p, "")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 16, CoalesceWindow: time.Minute, MaxBatch: 8})

	_, firstErrs, firstDone := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t)
	results, errs, done := submitAll(e, blockSQL, 1)
	waitFor(t, "the second query to queue", func() bool { return e.Forming() == 1 })

	bb.release <- struct{}{}
	bb.awaitEntered(t) // started by the run ending: the window is a minute away
	bb.release <- struct{}{}
	firstDone()
	done()
	if firstErrs[0] != nil || errs[0] != nil {
		t.Fatalf("errors: %v, %v", firstErrs[0], errs[0])
	}
	if results[0].BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", results[0].BatchSize)
	}
}

// TestWindowCapsWaitBehindLongRun: the window is the longest a forming batch
// waits behind a run that does not end — it then starts on the second
// worker, so two long same-model queries still overlap.
func TestWindowCapsWaitBehindLongRun(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p, "")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 16, CoalesceWindow: 10 * time.Millisecond, MaxBatch: 8})

	_, firstErrs, firstDone := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t)
	results, errs, done := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t) // the first run is still parked: only the window can have sealed
	if got := e.Running(); got != 2 {
		t.Fatalf("running = %d, want the two runs overlapping", got)
	}
	close(bb.release)
	firstDone()
	done()
	if firstErrs[0] != nil || errs[0] != nil {
		t.Fatalf("errors: %v, %v", firstErrs[0], errs[0])
	}
	if results[0].BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", results[0].BatchSize)
	}
}

// TestBackpressureRejectsWhenFull fills the admission queue with queries
// stuck in a blocking backend and checks the next arrival is shed with
// ErrRejected (and counted), instead of queueing unboundedly; releasing the
// backend drains the queue.
func TestBackpressureRejectsWhenFull(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p, "")
	e := exec.New(p, exec.Config{Workers: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = e.ExecQuery(blockSQL) }()
	<-bb.entered // query 0 is executing, holding the only worker

	wg.Add(1)
	go func() { defer wg.Done(); _, errs[1] = e.ExecQuery(blockSQL) }()
	// Wait until query 1 holds the second (last) admission token.
	for i := 0; ; i++ {
		if e.Queued() == 1 {
			break
		}
		if i > 2000 {
			t.Fatal("query 1 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := e.ExecQuery(blockSQL); err != exec.ErrRejected {
		t.Fatalf("over-admission error = %v, want ErrRejected", err)
	}

	close(bb.release)
	<-bb.entered // query 1 reaches the backend after query 0 frees the worker
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("blocked query %d failed: %v", i, err)
		}
	}

	if out := exposition(t, p); !strings.Contains(out, exec.MetricRejectedTotal+" 1") {
		t.Fatalf("rejection not counted:\n%s", out)
	}
}

// TestExecutorObservability checks the executor's telemetry: queue-depth and
// in-flight gauges exist and return to zero, the executed-batch-size
// histogram records the coalesced run, the coalesce wait is a histogram and
// a span on each member's trace, and pipeline metrics flow through the same
// registry.
func TestExecutorObservability(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	bb := newBlocking(t, p, "")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8, CoalesceWindow: time.Minute, MaxBatch: 8})

	// One run alone, then a batch of two that forms behind it.
	first, firstErrs, firstDone := submitAll(e, blockSQL, 1)
	bb.awaitEntered(t)
	pair, errs, done := submitAll(e, blockSQL, 2)
	waitFor(t, "the pair to queue", func() bool { return e.Forming() == 2 })
	close(bb.release)
	firstDone()
	done()
	for _, err := range append(firstErrs, errs...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ExecQuery("SELECT sepal_length FROM iris WHERE sepal_length > 5.0"); err != nil {
		t.Fatal(err)
	}

	out := exposition(t, p)
	for _, want := range []string{
		exec.MetricQueueDepth + " 0",
		exec.MetricInflight + " 0",
		exec.MetricBatchSize + `_bucket{le="1"} 1`,
		exec.MetricBatchSize + `_bucket{le="2"} 2`,
		exec.MetricCoalesceWait + "_count 3",
		`accelscore_statements_total{kind="exec"} 3`,
		`accelscore_statements_total{kind="select"} 1`,
		`accelscore_queries_total{status="ok"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The amortization is visible in the Fig. 11 stage histograms: the three
	// queries together account for TWO process invocations — one for the run
	// that went alone, one shared by the pair — where serialized execution
	// would have charged three.
	invokeSum := promValue(t, out, `accelscore_stage_sim_seconds_sum{stage="Python invocation"}`)
	want := 2 * p.Runtime.ProcessInvoke.Seconds()
	if math.Abs(invokeSum-want) > want*0.01 {
		t.Fatalf("invocation histogram sum = %gs, want ~%gs (two amortized charges)", invokeSum, want)
	}

	// The wait is in-band on every member's trace: nothing for the run that
	// found its key idle, the time queued behind it for the pair — and the
	// histogram holds the same three numbers.
	var waited time.Duration
	for i, res := range append(first, pair...) {
		tr, ok := p.Obs.Tracer.Get(res.TraceID)
		if !ok {
			t.Fatalf("trace %s not retained", res.TraceID)
		}
		var span obs.WallSpanSnapshot
		for _, w := range tr.Snapshot().WallSpans {
			if w.Name == exec.SpanCoalesceWait {
				span = w
			}
		}
		if span.Name == "" {
			t.Fatalf("query %d: trace has no %q span", i, exec.SpanCoalesceWait)
		}
		if i > 0 && span.Duration <= 0 {
			t.Fatalf("query %d queued behind a run but its wait span is %v", i, span.Duration)
		}
		if span.Offset+span.Duration > 0 {
			t.Fatalf("query %d: wait span ends %v after the run's trace began", i, span.Offset+span.Duration)
		}
		waited += span.Duration
	}
	sum := promValue(t, out, exec.MetricCoalesceWait+"_sum")
	if math.Abs(sum-waited.Seconds()) > 1e-6 {
		t.Fatalf("coalesce-wait histogram sum = %gs, spans add to %gs", sum, waited.Seconds())
	}
}

// promValue extracts one sample's value from Prometheus text exposition.
func promValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition missing series %q:\n%s", series, exposition)
	return 0
}

// TestHammerMixedWorkload (satellite: -race hammer) mixes concurrent
// coalesced scoring, SELECTs, INSERTs into scratch tables and model
// replacement against ONE pipeline through the executor, asserting correct
// predictions throughout and snapshot/cache invalidation afterwards.
func TestHammerMixedWorkload(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 300)
	e := exec.New(p, exec.Config{
		Workers:        4,
		QueueDepth:     128,
		CoalesceWindow: 500 * time.Microsecond,
		MaxBatch:       8,
	})
	want := f.PredictBatch(data)
	churn, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2,
		Tree:     forest.TrainConfig{MaxDepth: 4},
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 20
	backends := []string{"CPU_SKLearn", "CPU_ONNX", "FPGA"}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1:
					// Stable-model scoring: must always match the oracle,
					// coalesced or not.
					be := backends[(w+i)%len(backends)]
					res, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='" + be + "'")
					if err != nil {
						errCh <- err
						return
					}
					for j := range want {
						if res.Predictions[j] != want[j] {
							errCh <- fmt.Errorf("worker %d iter %d: prediction %d differs on %s (batch %d)",
								w, i, j, be, res.BatchSize)
							return
						}
					}
				case 2:
					// Model churn on a shared name: replace then score.
					// Not-found races are fine; wrong row counts are not.
					_ = p.DB.DeleteModel("churn")
					_ = p.DB.StoreModel("churn", churn)
					res, err := e.ExecQuery("EXEC sp_score_model @model='churn', @data='iris', @backend='CPU_ONNX'")
					if err != nil {
						if strings.Contains(err.Error(), "not found") {
							continue
						}
						errCh <- err
						return
					}
					if len(res.Predictions) != len(want) {
						errCh <- fmt.Errorf("worker %d: churn scored %d rows", w, len(res.Predictions))
						return
					}
				case 3:
					// DDL + DML on worker-private tables, plus reads of the
					// shared table, all through the executor.
					tbl := fmt.Sprintf("scratch_%d_%d", w, i)
					if _, err := e.ExecQuery("CREATE TABLE " + tbl + " (x REAL, label BIGINT)"); err != nil {
						errCh <- err
						return
					}
					if _, err := e.ExecQuery("INSERT INTO " + tbl + " VALUES (1.0, 0), (2.0, 1)"); err != nil {
						errCh <- err
						return
					}
					if _, err := e.ExecQuery("SELECT sepal_length FROM iris WHERE sepal_length > 6.0"); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: nothing queued or running.
	if e.Queued() != 0 || e.Running() != 0 {
		t.Fatalf("not drained: queued=%d running=%d", e.Queued(), e.Running())
	}

	// A new row must be visible to the next scoring query, which reads a
	// view of the table as it stands.
	if _, err := e.ExecQuery("INSERT INTO iris VALUES (5.1, 3.5, 1.4, 0.2, 0)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecQuery(scoreSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != len(want)+1 {
		t.Fatalf("post-insert scoring saw %d rows, want %d", len(res.Predictions), len(want)+1)
	}
}

// BenchmarkSubmitScoreIdle is what the executor adds to a lone query with the
// coalescing window armed: admission, the coalescer's idle path, a worker and
// a device token around one pipeline run over 16 rows. Before group commit
// this was the window itself.
func BenchmarkSubmitScoreIdle(b *testing.B) {
	p, _, _ := newEnv(b, 8, 6, 16)
	e := exec.New(p, exec.Config{QueueDepth: 64, CoalesceWindow: 2 * time.Millisecond, MaxBatch: 8})
	defer e.Close(context.Background())
	ctx := context.Background()
	req := &pipeline.ScoreRequest{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"}
	if _, err := e.SubmitScore(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SubmitScore(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
