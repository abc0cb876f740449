package pipeline_test

import (
	"context"
	"testing"

	"accelscore/internal/pipeline"
)

// TestExecScoreBatchAmortizesOverheads scores three requests over the same
// model as one coalesced batch and checks the overhead-amortization
// arithmetic: one cache probe, fixed stages split by the batch size,
// row-proportional stages split by row share, and the prediction fan-out
// matching the serialized per-query results exactly.
func TestExecScoreBatchAmortizesOverheads(t *testing.T) {
	p, f, data := newPipeline(t, 8, 10, 300)
	p.Cache = pipeline.NewModelCache(4)
	want := f.PredictBatch(data)

	limits := []int{50, 100, 150}
	reqs := make([]*pipeline.ScoreRequest, len(limits))
	for i, n := range limits {
		reqs[i] = &pipeline.ScoreRequest{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn", Limit: n}
	}
	results, err := p.ExecScoreBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(limits) {
		t.Fatalf("got %d results for %d requests", len(results), len(limits))
	}
	total := 0
	for _, n := range limits {
		total += n
	}
	var invokeSum int64
	for i, res := range results {
		if res.BatchSize != len(limits) {
			t.Fatalf("result %d: BatchSize = %d", i, res.BatchSize)
		}
		if len(res.Predictions) != limits[i] {
			t.Fatalf("result %d: %d predictions, want %d", i, len(res.Predictions), limits[i])
		}
		for j, pr := range res.Predictions {
			if pr != want[j] {
				t.Fatalf("result %d: prediction %d = %d, want %d", i, j, pr, want[j])
			}
		}
		// Fixed overheads divide by the batch size...
		if got, exp := res.Timeline.Component(pipeline.StagePythonInvocation),
			p.Runtime.ProcessInvoke/3; got != exp {
			t.Fatalf("result %d: invocation %v, want %v", i, got, exp)
		}
		invokeSum += int64(res.Timeline.Component(pipeline.StagePythonInvocation))
		// ...while scoring scales with the row share: the 150-row query
		// must be charged 3x the 50-row query.
		if i > 0 {
			small := results[0].Timeline.Component(pipeline.StageModelScoring)
			cur := res.Timeline.Component(pipeline.StageModelScoring)
			ratio := float64(cur) / float64(small)
			wantRatio := float64(limits[i]) / float64(limits[0])
			if ratio < wantRatio*0.99 || ratio > wantRatio*1.01 {
				t.Fatalf("result %d: scoring share ratio %.3f, want ~%.2f", i, ratio, wantRatio)
			}
		}
	}
	if st := p.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("batch probed cache more than once: %v", st)
	}

	// The batch reloads nothing per query: a second identical batch hits.
	if _, err := p.ExecScoreBatchCtx(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if st := p.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("second batch should hit: %v", st)
	}
}

// TestExecScoreBatchRejectsMixedKeys: a batch mixing models (or backends)
// is a programming error in the coalescer and must fail loudly.
func TestExecScoreBatchRejectsMixedKeys(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 6, 60)
	_, err := p.ExecScoreBatchCtx(context.Background(), []*pipeline.ScoreRequest{
		{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"},
		{Model: "iris_rf", Data: "iris", Backend: "FPGA"},
	})
	if err == nil {
		t.Fatal("mixed-backend batch did not fail")
	}
}

// TestBatchOfOneMatchesSingleQuery: the batch path with one request must be
// indistinguishable from the classic ExecQuery path — same predictions,
// same simulated timeline, stage by stage.
func TestBatchOfOneMatchesSingleQuery(t *testing.T) {
	p1, _, _ := newPipeline(t, 8, 10, 200)
	p2, _, _ := newPipeline(t, 8, 10, 200)
	single, err := p1.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'")
	if err != nil {
		t.Fatal(err)
	}
	results, err := p2.ExecScoreBatchCtx(context.Background(),
		[]*pipeline.ScoreRequest{{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"}})
	if err != nil {
		t.Fatal(err)
	}
	batch := results[0]
	if batch.BatchSize != 1 {
		t.Fatalf("BatchSize = %d", batch.BatchSize)
	}
	ss, bs := single.Timeline.Spans(), batch.Timeline.Spans()
	if len(ss) != len(bs) {
		t.Fatalf("span count %d vs %d", len(ss), len(bs))
	}
	for i := range ss {
		if ss[i] != bs[i] {
			t.Fatalf("span %d: %+v vs %+v", i, ss[i], bs[i])
		}
	}
	for j := range single.Predictions {
		if single.Predictions[j] != batch.Predictions[j] {
			t.Fatalf("prediction %d differs", j)
		}
	}
}
