package pipeline_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
)

// TestConcurrentPipeline hammers one shared Pipeline from N goroutines with
// a mix of scoring queries (cache hits), model churn (store/delete, which
// invalidates and evicts cache entries) and DDL, proving under -race that
// the compiled-model cache, the dataset snapshot cache and the shared flat
// kernel are thread-safe. Every scoring result is checked against the
// single-threaded oracle.
func TestConcurrentPipeline(t *testing.T) {
	p, f, data := newPipeline(t, 8, 10, 400)
	p.Cache = pipeline.NewModelCache(3) // small: force eviction churn

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
	const iters = 25
	backends := []string{"CPU_SKLearn", "CPU_ONNX", "CPU_ONNX_52th", "FPGA"}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1:
					// Scoring the stable model: always correct.
					be := backends[(w+i)%len(backends)]
					res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='" + be + "'")
					if err != nil {
						errs <- err
						return
					}
					for j := range want {
						if res.Predictions[j] != want[j] {
							errs <- fmt.Errorf("worker %d iter %d: prediction %d differs on %s", w, i, j, be)
							return
						}
					}
				case 2:
					// Model churn on a shared name: replace then score. Both
					// the delete and the scoring may race with other workers
					// (not-found is fine); wrong predictions are not.
					name := "churn"
					_ = p.DB.DeleteModel(name)
					_ = p.DB.StoreModel(name, churn) // duplicate store errors are fine
					res, err := p.ExecQuery("EXEC sp_score_model @model='churn', @data='iris', @backend='CPU_ONNX'")
					if err != nil {
						if strings.Contains(err.Error(), "not found") {
							continue
						}
						errs <- err
						return
					}
					if len(res.Predictions) != len(want) {
						errs <- fmt.Errorf("worker %d: churn scored %d rows", w, len(res.Predictions))
						return
					}
				case 3:
					// DDL on worker-private tables plus private-model cache
					// pressure.
					tblName := fmt.Sprintf("scratch_%d_%d", w, i)
					if _, err := p.ExecQuery("CREATE TABLE " + tblName + " (x REAL, label BIGINT)"); err != nil {
						errs <- err
						return
					}
					if _, err := p.ExecQuery("INSERT INTO " + tblName + " VALUES (1.0, 0), (2.0, 1)"); err != nil {
						errs <- err
						return
					}
					modelName := fmt.Sprintf("m_%d_%d", w, i%3)
					_ = p.DB.StoreModel(modelName, churn)
					if _, err := p.ExecQuery("EXEC sp_score_model @model='" + modelName + "', @data='iris', @backend='CPU_SKLearn'"); err != nil &&
						!strings.Contains(err.Error(), "not found") {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("eviction path never exercised: %v", st)
	}
}

// TestBoundedQueriesShareThePrefixReadOnly: with the hot path on, an @limit
// query scores the table's published prefix snapshot itself, not a private
// copy, so every engine has to treat its input as read-only. The same
// @limit + @where query runs twice on each of the six engines, all twelve at
// once (under -race a write to the shared cells is a report), every result
// is checked against score-then-filter, and afterwards the cached prefix is
// still the published dataset, byte for byte.
func TestBoundedQueriesShareThePrefixReadOnly(t *testing.T) {
	const rows, limit = 900, 700
	data := dataset.Higgs(rows, 5) // binary, so GPU_RAPIDS takes it too
	tbl, err := db.TableFromDataset("higgs", data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Train(dataset.Higgs(600, 9), forest.ForestConfig{
		NumTrees: 8, Tree: forest.TrainConfig{MaxDepth: 6}, Seed: 1, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := platform.New()
	o := obs.NewObserver()
	p := &pipeline.Pipeline{DB: db.New(), Runtime: hw.DefaultRuntime(), Registry: tb.Registry,
		Advisor: tb.Advisor, Cache: pipeline.NewModelCache(4), Obs: o}
	if err := p.DB.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.StoreModel("higgs_rf", f); err != nil {
		t.Fatal(err)
	}

	eta := slices.Index(data.FeatureNames, "lepton_eta")
	var want []int
	for i := 0; i < limit; i++ {
		if data.Row(i)[eta] > 0 {
			want = append(want, f.PredictClass(data.Row(i)))
		}
	}
	prefix, _, err := tbl.DatasetSnapshotFor(data.FeatureNames, limit)
	if err != nil {
		t.Fatal(err)
	}
	published := slices.Clone(prefix.X)

	engines := tb.Registry.Names()
	if len(engines) != 6 {
		t.Fatalf("registry has %d engines, the test means to cover six: %v", len(engines), engines)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(engines))
	for _, be := range append(engines, engines...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.ExecQuery(fmt.Sprintf("EXEC sp_score_model @model='higgs_rf', @data='higgs', "+
				"@backend='%s', @limit=%d, @where='lepton_eta > 0'", be, limit))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", be, err)
			} else if !slices.Equal(res.Predictions, want) {
				errs <- fmt.Errorf("%s: predictions differ from score-then-filter over the first %d rows", be, limit)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if allHit := fmt.Sprintf(`%s{event="hit"} %d`, pipeline.MetricSnapshotCacheEventsTotal, 2*len(engines)); !strings.Contains(sb.String(), allHit) {
		t.Errorf("not every query was served from the published prefix: want %s", allHit)
	}
	again, hit, err := tbl.DatasetSnapshotFor(data.FeatureNames, limit)
	if err != nil || !hit || again != prefix {
		t.Fatalf("the published prefix was replaced (hit=%v same=%v err=%v)", hit, again == prefix, err)
	}
	if !slices.Equal(again.X, published) {
		t.Fatal("an engine wrote to the shared prefix snapshot")
	}
}
