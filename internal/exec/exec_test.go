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

// blockingBackend parks every Score call until release is closed, so tests
// can hold queries in the executing state deterministically.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

// newBlocking registers a BLOCK backend on p; entered is buffered for every
// run a test in this package parks at once.
func newBlocking(t testing.TB, p *pipeline.Pipeline) *blockingBackend {
	t.Helper()
	bb := &blockingBackend{entered: make(chan struct{}, 4), release: make(chan struct{})}
	if err := p.Registry.Register(bb); err != nil {
		t.Fatal(err)
	}
	return bb
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

// TestBackpressureRejectsWhenFull fills the admission queue with queries
// stuck in a blocking backend and checks the next arrival is shed with
// ErrRejected (and counted), instead of queueing unboundedly; releasing the
// backend drains the queue.
func TestBackpressureRejectsWhenFull(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p)
	e := exec.New(p, exec.Config{Workers: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = e.ExecQuery(blockSQL) }()
	<-bb.entered // query 0 is executing, holding the only worker

	wg.Add(1)
	go func() { defer wg.Done(); _, errs[1] = e.ExecQuery(blockSQL) }()
	// Wait until query 1 holds the second (last) admission token.
	waitFor(t, "query 1 to queue", func() bool { return e.Queued() == 1 })

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
// in-flight gauges exist and return to zero, pipeline metrics flow through
// the same registry, every query is billed its own process invocation, and
// the retired coalescing families are gone from the exposition.
func TestExecutorObservability(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
	for i := 0; i < 3; i++ {
		if _, err := e.ExecQuery(scoreSQL); err != nil {
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
		`accelscore_statements_total{kind="exec"} 3`,
		`accelscore_statements_total{kind="select"} 1`,
		`accelscore_queries_total{status="ok"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"accelscore_exec_coalesced_batch_size", "accelscore_exec_coalesce_wait_seconds"} {
		if strings.Contains(out, gone) {
			t.Fatalf("exposition still has %s:\n%s", gone, out)
		}
	}
	invokeSum := promValue(t, out, `accelscore_stage_sim_seconds_sum{stage="Python invocation"}`)
	want := 3 * p.Runtime.ProcessInvoke.Seconds()
	if math.Abs(invokeSum-want) > want*0.01 {
		t.Fatalf("invocation histogram sum = %gs, want ~%gs (one charge per query)", invokeSum, want)
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
// scoring, SELECTs, INSERTs into scratch tables and model
// replacement against ONE pipeline through the executor, asserting correct
// predictions throughout and snapshot/cache invalidation afterwards.
func TestHammerMixedWorkload(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 300)
	e := exec.New(p, exec.Config{Workers: 4, QueueDepth: 128})
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
					// Stable-model scoring: must always match the oracle.
					be := backends[(w+i)%len(backends)]
					res, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='" + be + "'")
					if err != nil {
						errCh <- err
						return
					}
					for j := range want {
						if res.Predictions[j] != want[j] {
							errCh <- fmt.Errorf("worker %d iter %d: prediction %d differs on %s", w, i, j, be)
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

// BenchmarkSubmitScore is what the executor adds to a lone query: admission,
// a worker and a device token around one pipeline run over 16 rows.
func BenchmarkSubmitScore(b *testing.B) {
	p, _, _ := newEnv(b, 8, 6, 16)
	e := exec.New(p, exec.Config{QueueDepth: 64})
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
