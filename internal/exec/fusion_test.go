package exec_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/pipeline"
)

const predictSQL = "SELECT prediction FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_SKLearn') WHERE petal_width < 1.5"

// TestArrivalOrderDoesNotChangeAnAnswer: whatever else is executing for the
// same model when a query arrives, its result — predictions, ordinals, row
// counts AND its simulated timelines — is the one the pipeline gives it
// alone. (Under request coalescing the timelines were an apportioned share of
// whichever batch the query happened to join.)
func TestArrivalOrderDoesNotChangeAnAnswer(t *testing.T) {
	p, _, _ := newEnv(t, 8, 10, 256)
	where, err := db.ParseConditionList("petal_width < 1.5")
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.ScoreRequest{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"}
	shapes := make([]*pipeline.ScoreRequest, 7)
	for i := range shapes {
		r := base
		shapes[i] = &r
	}
	shapes[1].Limit = 100
	shapes[2].Where = where
	shapes[3].Agg = pipeline.AggCount
	shapes[4].Agg, shapes[4].Where = pipeline.AggGroupCount, where
	shapes[5].Partition = pipeline.Partition{Index: 0, Count: 2}
	shapes[6].Partition = pipeline.Partition{Index: 1, Count: 2}

	// stripped removes what legitimately differs between two runs of one
	// query: its trace ID, the cache counters after it, its measured stage
	// costs, and the identity of the result table (compared by its rows).
	stripped := func(res *pipeline.QueryResult) (pipeline.QueryResult, [][]db.Value) {
		c := *res
		rows := c.Table.Rows()
		c.TraceID, c.CacheStats, c.Table, c.Attribution = "", pipeline.CacheStats{}, nil, nil
		return c, rows
	}
	if _, err := p.WarmModel(base.Model); err != nil { // every run below is a cache hit
		t.Fatal(err)
	}
	wantRes := make([]pipeline.QueryResult, len(shapes))
	wantRows := make([][][]db.Value, len(shapes))
	for i, req := range shapes {
		res, err := p.ExecScoreCtx(context.Background(), req)
		if err != nil {
			t.Fatalf("shape %d serial: %v", i, err)
		}
		wantRes[i], wantRows[i] = stripped(res)
	}

	e := exec.New(p, exec.Config{Workers: 4, QueueDepth: 16})
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range shapes {
				i := (k + c) % len(shapes)
				res, err := e.SubmitScore(context.Background(), shapes[i])
				if err != nil {
					errCh <- fmt.Errorf("client %d shape %d: %w", c, i, err)
					return
				}
				got, rows := stripped(res)
				if !reflect.DeepEqual(got, wantRes[i]) || !reflect.DeepEqual(rows, wantRows[i]) {
					errCh <- fmt.Errorf("client %d shape %d: concurrent result differs from the serial one:\n got %+v\nwant %+v",
						c, i, got, wantRes[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if e.Queued() != 0 || e.Running() != 0 {
		t.Fatalf("not drained: queued=%d running=%d", e.Queued(), e.Running())
	}
}

// PREDICT statements route through the executor's scoring path, not the
// generic statement path.
func TestSubmitPredictStatement(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 200)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
	defer e.Close(context.Background())

	var wg sync.WaitGroup
	results := make([]*pipeline.QueryResult, 3)
	errs := make([]error, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), predictSQL)
		}(i)
	}
	wg.Wait()

	want := 0
	for i := 0; i < data.NumRecords(); i++ {
		if float64(data.Row(i)[3]) < 1.5 {
			want++
		}
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if len(results[i].Predictions) != want {
			t.Fatalf("query %d: %d predictions, want %d", i, len(results[i].Predictions), want)
		}
		for j, pr := range results[i].Predictions {
			if pr != results[0].Predictions[j] {
				t.Fatalf("query %d row %d differs across concurrent queries", i, j)
			}
		}
	}
	_ = f
}

// A fused aggregate through the executor returns the histogram table.
func TestSubmitFusedAggregate(t *testing.T) {
	p, f, data := newEnv(t, 8, 10, 150)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
	defer e.Close(context.Background())
	res, err := e.Submit(context.Background(),
		"SELECT prediction, COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_SKLearn') GROUP BY prediction")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < res.Table.NumRows(); r++ {
		total += res.Table.Cell(r, 1).I
	}
	if total != int64(data.NumRecords()) {
		t.Fatalf("histogram totals %d rows, want %d", total, data.NumRecords())
	}
	_ = f
}
