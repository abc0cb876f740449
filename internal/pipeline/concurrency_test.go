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

// higgsTier is a hot-path pipeline over a 900-row HIGGS table (binary, so
// GPU_RAPIDS takes it too) with an observer, and the six engine names.
func higgsTier(t *testing.T) (p *pipeline.Pipeline, tbl *db.Table, f *forest.Forest, data *dataset.Dataset, engines []string) {
	t.Helper()
	data = dataset.Higgs(900, 5)
	tbl, err := db.TableFromDataset("higgs", data)
	if err != nil {
		t.Fatal(err)
	}
	f, err = forest.Train(dataset.Higgs(600, 9), forest.ForestConfig{
		NumTrees: 8, Tree: forest.TrainConfig{MaxDepth: 6}, Seed: 1, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := platform.New()
	p = &pipeline.Pipeline{DB: db.New(), Runtime: hw.DefaultRuntime(), Registry: tb.Registry,
		Advisor: tb.Advisor, Cache: pipeline.NewModelCache(4), Obs: obs.NewObserver()}
	if err := p.DB.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.StoreModel("higgs_rf", f); err != nil {
		t.Fatal(err)
	}
	engines = tb.Registry.Names()
	if len(engines) != 6 {
		t.Fatalf("registry has %d engines, the test means to cover six: %v", len(engines), engines)
	}
	return p, tbl, f, data, engines
}

// TestBoundedQueriesShareThePrefixReadOnly: with the hot path on, an @limit
// query scores a view of the table's own block, not a private copy, so every
// engine has to treat its input as read-only. The same @limit + @where query
// runs twice on each of the six engines, all twelve at once (under -race a
// write to the shared cells is a report), every result is checked against
// score-then-filter, and afterwards the table's cells are what they were,
// byte for byte.
func TestBoundedQueriesShareThePrefixReadOnly(t *testing.T) {
	const limit = 700
	p, tbl, f, data, engines := higgsTier(t)

	eta := slices.Index(data.FeatureNames, "lepton_eta")
	var want []int
	for i := 0; i < limit; i++ {
		if data.Row(i)[eta] > 0 {
			want = append(want, f.PredictClass(data.Row(i)))
		}
	}
	prefix, hit, err := tbl.DatasetSnapshotFor(data.FeatureNames, limit)
	if err != nil || !hit {
		t.Fatalf("the model's own columns must be served as a view (hit=%v err=%v)", hit, err)
	}
	published := slices.Clone(prefix.X)

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
	if err := p.Obs.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if allHit := fmt.Sprintf(`%s{event="hit"} %d`, pipeline.MetricSnapshotCacheEventsTotal, 2*len(engines)); !strings.Contains(sb.String(), allHit) {
		t.Errorf("not every query was served a view: want %s", allHit)
	}
	again, hit, err := tbl.DatasetSnapshotFor(data.FeatureNames, limit)
	if err != nil || !hit || &again.X[0] != &prefix.X[0] {
		t.Fatalf("the block moved under an unchanged table (hit=%v err=%v)", hit, err)
	}
	if !slices.Equal(again.X, published) {
		t.Fatal("an engine wrote to the table's cells")
	}
}

// TestEnginesScoreOneTableStateUnderInserts: the dataset an engine scores is
// a view of a block that INSERTs are appending to. The same full-table query
// runs on each of the six engines, several times over, while a writer appends
// 3-row statements; every reply must cover a whole number of statements and
// equal PredictClass over exactly the rows that existed at its fetch — rows
// [0, n) of the final table, since an append moves nothing.
func TestEnginesScoreOneTableStateUnderInserts(t *testing.T) {
	const rounds, perStmt, maxStmts = 4, 3, 400
	p, tbl, f, data, engines := higgsTier(t)
	base := tbl.NumRows()

	type reply struct {
		engine string
		preds  []int
	}
	replies := make(chan reply, rounds*len(engines))
	errs := make(chan error, len(engines)+1)
	var readers sync.WaitGroup
	for _, be := range engines {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				res, err := p.ExecQuery("EXEC sp_score_model @model='higgs_rf', @data='higgs', @backend='" + be + "'")
				if err != nil {
					errs <- fmt.Errorf("%s: %w", be, err)
					return
				}
				replies <- reply{be, res.Predictions}
			}
		}()
	}
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < maxStmts; i++ {
			select {
			case <-done:
				return
			default:
			}
			var sb strings.Builder
			sb.WriteString("INSERT INTO higgs VALUES ")
			for r := 0; r < perStmt; r++ {
				if r > 0 {
					sb.WriteString(", ")
				}
				sb.WriteByte('(')
				for _, v := range data.Row((i*perStmt + r*7) % base) {
					fmt.Fprintf(&sb, "%v, ", v+float32(i%5))
				}
				sb.WriteString("0)")
			}
			if _, err := p.ExecQuery(sb.String()); err != nil {
				errs <- err
				return
			}
		}
	}()
	readers.Wait()
	close(done)
	writer.Wait()
	close(replies)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := db.DatasetFromTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(final)
	grew := false
	for r := range replies {
		n := len(r.preds)
		if n < base || n > len(want) || (n-base)%perStmt != 0 {
			t.Fatalf("%s scored %d rows: not the table after a whole number of INSERTs (%d base, %d final)",
				r.engine, n, base, len(want))
		}
		if !slices.Equal(r.preds, want[:n]) {
			t.Fatalf("%s: predictions over %d rows differ from PredictClass over the rows that existed at the fetch", r.engine, n)
		}
		grew = grew || n > base
	}
	if !grew {
		t.Log("no query overlapped an INSERT on this run")
	}
}
