package pipeline_test

import (
	"testing"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
)

// newPipeline builds a pipeline over a database holding the IRIS table and a
// trained model.
func newPipeline(t testing.TB, trees, depth, rows int) (*pipeline.Pipeline, *forest.Forest, *dataset.Dataset) {
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
	p := &pipeline.Pipeline{
		DB:       d,
		Runtime:  hw.DefaultRuntime(),
		Registry: tb.Registry,
		Advisor:  tb.Advisor,
	}
	return p, f, data
}

func TestEndToEndQueryOnFPGA(t *testing.T) {
	p, f, data := newPipeline(t, 8, 10, 300)
	res, err := p.ExecQuery("EXEC sp_score_model @model = 'iris_rf', @data = 'iris', @backend = 'FPGA'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "FPGA" {
		t.Fatalf("backend = %s", res.Backend)
	}
	want := f.PredictBatch(data)
	if len(res.Predictions) != len(want) {
		t.Fatalf("%d predictions", len(res.Predictions))
	}
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("prediction %d differs", i)
		}
	}
	// The result table mirrors the predictions.
	if res.Table.NumRows() != len(want) {
		t.Fatalf("result table rows = %d", res.Table.NumRows())
	}
	if int(res.Table.Cell(0, 0).I) != want[0] {
		t.Fatal("result table content wrong")
	}
}

func TestFig11StagesPresent(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 8, 100)
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'")
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		pipeline.StagePythonInvocation, pipeline.StageDataTransfer,
		pipeline.StageModelPreproc, pipeline.StageDataPreproc,
		pipeline.StageModelScoring, pipeline.StagePostprocessing,
	} {
		if res.Timeline.Component(stage) <= 0 {
			t.Fatalf("stage %q missing from timeline", stage)
		}
	}
	// Python invocation dominates a small query (Fig. 11 discussion).
	inv := res.Timeline.Component(pipeline.StagePythonInvocation)
	if frac := float64(inv) / float64(res.Timeline.Total()); frac < 0.5 {
		t.Fatalf("invocation fraction = %.2f, should dominate small queries", frac)
	}
}

func TestAutoBackendSelection(t *testing.T) {
	p, _, _ := newPipeline(t, 8, 10, 200)
	// 200 records, small model: the advisor must keep scoring on a CPU
	// engine.
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='auto'")
	if err != nil {
		t.Fatal(err)
	}
	switch res.Backend {
	case "CPU_SKLearn", "CPU_ONNX", "CPU_ONNX_52th":
	default:
		t.Fatalf("advisor offloaded a 200-record query to %s", res.Backend)
	}
	// Default (no @backend) also goes through the advisor.
	res2, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris'")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Backend != res.Backend {
		t.Fatalf("default backend %s != auto backend %s", res2.Backend, res.Backend)
	}
}

func TestLimitParameter(t *testing.T) {
	p, _, _ := newPipeline(t, 2, 6, 500)
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX', @limit=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 50 {
		t.Fatalf("limit ignored: %d predictions", len(res.Predictions))
	}
	if _, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @limit=-5"); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestSelectPassthrough(t *testing.T) {
	p, _, _ := newPipeline(t, 2, 6, 150)
	res, err := p.ExecQuery("SELECT TOP 3 sepal_length FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("SELECT rows = %d", res.Table.NumRows())
	}
	if res.Predictions != nil {
		t.Fatal("SELECT produced predictions")
	}
}

func TestErrorPaths(t *testing.T) {
	p, _, _ := newPipeline(t, 2, 6, 100)
	bad := []string{
		"EXEC sp_other @model='iris_rf', @data='iris'",
		"EXEC sp_score_model @data='iris'",
		"EXEC sp_score_model @model='iris_rf'",
		"EXEC sp_score_model @model='missing', @data='iris'",
		"EXEC sp_score_model @model='iris_rf', @data='missing'",
		"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='TPU'",
		"EXEC sp_score_model @model='iris_rf', @data='iris', @bogus=1",
		"EXEC sp_score_model @model=1, @data='iris'",
		"EXEC sp_score_model @model='iris_rf', @data='iris', @backend=3",
		"not sql at all (",
	}
	for _, sql := range bad {
		if _, err := p.ExecQuery(sql); err == nil {
			t.Fatalf("accepted: %q", sql)
		}
	}
}

func TestRAPIDSRejectedViaPipeline(t *testing.T) {
	// IRIS has 3 classes; FIL is binary-only, and the pipeline surfaces the
	// engine error.
	p, _, _ := newPipeline(t, 2, 6, 100)
	if _, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='GPU_RAPIDS'"); err == nil {
		t.Fatal("RAPIDS accepted a 3-class model")
	}
}

func TestEstimateMatchesRunShape(t *testing.T) {
	p, f, _ := newPipeline(t, 8, 10, 400)
	blob, err := p.DB.LoadModelBlob("iris_rf")
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'")
	if err != nil {
		t.Fatal(err)
	}
	est, name, err := p.Estimate(f.ComputeStats(), 400, int64(len(blob)), "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	if name != "FPGA" {
		t.Fatalf("estimate backend = %s", name)
	}
	if run.Timeline.Total() != est.Total() {
		t.Fatalf("query total %v != Estimate total %v", run.Timeline.Total(), est.Total())
	}
}

func TestEndToEndSpeedupShape(t *testing.T) {
	// §IV-D: for 1M HIGGS records with a 128-tree model, offloading the
	// scoring yields an end-to-end query speedup of ~2.6x — much less than
	// the ~70x scoring speedup, because data transfer dominates.
	tb := platform.New()
	p := &pipeline.Pipeline{Runtime: hw.DefaultRuntime(), Registry: tb.Registry, Advisor: tb.Advisor}
	stats := forest.SyntheticStats(128, 10, 28, 2)
	blobBytes := int64(stats.TotalNodes) * 21 // approx serialized size

	cpuTl, _, err := p.Estimate(stats, 1_000_000, blobBytes, "CPU_ONNX_52th")
	if err != nil {
		t.Fatal(err)
	}
	fpgaTl, _, err := p.Estimate(stats, 1_000_000, blobBytes, "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(cpuTl.Total()) / float64(fpgaTl.Total())
	if speedup < 1.8 || speedup > 5 {
		t.Fatalf("end-to-end speedup = %.2fx, paper reports ~2.6x", speedup)
	}
	// After offload, data transfer is the dominant stage (§IV-D).
	xfer := fpgaTl.Component(pipeline.StageDataTransfer)
	if float64(xfer)/float64(fpgaTl.Total()) < 0.4 {
		t.Fatalf("data transfer = %v of %v, should dominate the offloaded query",
			xfer, fpgaTl.Total())
	}
}

func TestTightIntegrationAblation(t *testing.T) {
	// §IV-E: tighter DBMS integration removes most application overheads.
	tb := platform.New()
	stats := forest.SyntheticStats(128, 10, 28, 2)
	loose := &pipeline.Pipeline{Runtime: hw.DefaultRuntime(), Registry: tb.Registry}
	tight := &pipeline.Pipeline{Runtime: hw.TightlyIntegratedRuntime(), Registry: tb.Registry}
	lt, _, err := loose.Estimate(stats, 1_000_000, 1<<21, "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	tt, _, err := tight.Estimate(stats, 1_000_000, 1<<21, "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	if improvement := float64(lt.Total()) / float64(tt.Total()); improvement < 3 {
		t.Fatalf("tight integration improvement = %.1fx, want > 3x", improvement)
	}
}

func TestScoringDetailPreserved(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 10, 200)
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'")
	if err != nil {
		t.Fatal(err)
	}
	if res.ScoringDetail.Component("software overhead") <= 0 {
		t.Fatal("scoring detail lost")
	}
	if res.Timeline.Component(pipeline.StageModelScoring) != res.ScoringDetail.Total() {
		t.Fatal("scoring stage does not equal the backend's total")
	}
	if res.Timeline.Total() < 250*time.Millisecond {
		t.Fatalf("end-to-end total %v below the process-invoke floor", res.Timeline.Total())
	}
}

func BenchmarkEndToEndQuery(b *testing.B) {
	p, _, _ := newPipeline(b, 8, 10, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'"); err != nil {
			b.Fatal(err)
		}
	}
}
