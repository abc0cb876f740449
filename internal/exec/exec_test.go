package exec_test

import (
	"fmt"
	"math"
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

// TestCoalesceMergesConcurrentQueries launches exactly MaxBatch concurrent
// queries for one (model, backend): the batch must seal on the MaxBatch
// joiner (no window wait), execute as ONE pipeline run — a single cache
// miss — and fan correct predictions back out with per-query amortized
// timelines and distinct trace IDs.
func TestCoalesceMergesConcurrentQueries(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 200)
	const k = 4
	e := exec.New(p, exec.Config{
		Workers:        2,
		QueueDepth:     16,
		CoalesceWindow: 2 * time.Second, // generous: the MaxBatch seal must win
		MaxBatch:       k,
	})
	want := f.PredictBatch(data)

	var wg sync.WaitGroup
	results := make([]*pipeline.QueryResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.ExecQuery(scoreSQL)
		}(i)
	}
	wg.Wait()

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
	if st := p.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("batch should probe the cache once: %v", st)
	}
	if got := e.Queued(); got != 0 {
		t.Fatalf("queued after drain = %d", got)
	}
}

// TestCoalesceWindowSealsSingleton: a lone query under an armed coalescing
// window still completes (timer seal) and reduces exactly to the
// uncoalesced result shape.
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

// blockingBackend parks every Score call until released, so tests can hold
// queries in the executing state deterministically.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Name() string { return "BLOCK" }

func (b *blockingBackend) Score(req *backend.Request) (*backend.Result, error) {
	b.entered <- struct{}{}
	<-b.release
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

// TestBackpressureRejectsWhenFull fills the admission queue with queries
// stuck in a blocking backend and checks the next arrival is shed with
// ErrRejected (and counted), instead of queueing unboundedly; releasing the
// backend drains the queue.
func TestBackpressureRejectsWhenFull(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := &blockingBackend{entered: make(chan struct{}, 4), release: make(chan struct{})}
	if err := p.Registry.Register(bb); err != nil {
		t.Fatal(err)
	}
	e := exec.New(p, exec.Config{Workers: 1, QueueDepth: 2})
	blockSQL := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='BLOCK'"

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

	var sb strings.Builder
	if err := p.Obs.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), exec.MetricRejectedTotal+" 1") {
		t.Fatalf("rejection not counted:\n%s", sb.String())
	}
}

// TestExecutorObservability checks the tentpole's telemetry (satellite:
// obs): queue-depth and in-flight gauges exist and return to zero, the
// executed-batch-size histogram records the coalesced run, and pipeline
// metrics flow through the same registry.
func TestExecutorObservability(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8, CoalesceWindow: time.Second, MaxBatch: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.ExecQuery(scoreSQL); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := e.ExecQuery("SELECT sepal_length FROM iris WHERE sepal_length > 5.0"); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := p.Obs.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		exec.MetricQueueDepth + " 0",
		exec.MetricInflight + " 0",
		exec.MetricBatchSize + `_bucket{le="2"} 1`,
		`accelscore_statements_total{kind="exec"} 2`,
		`accelscore_statements_total{kind="select"} 1`,
		`accelscore_queries_total{status="ok"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The amortization is visible in the Fig. 11 stage histograms: the two
	// coalesced queries together account for ONE process invocation (half
	// each), where serialized execution would have charged two.
	invokeSum := promValue(t, out, `accelscore_stage_sim_seconds_sum{stage="Python invocation"}`)
	want := p.Runtime.ProcessInvoke.Seconds()
	if math.Abs(invokeSum-want) > want*0.01 {
		t.Fatalf("invocation histogram sum = %gs across the batch, want ~%gs (one amortized charge)", invokeSum, want)
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

	// Snapshot invalidation: a new row must be visible to the next scoring
	// query (version-keyed snapshot cache can't serve the stale dataset).
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
