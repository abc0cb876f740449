package pipeline_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/model"
	"accelscore/internal/pipeline"
)

// newCachedPipeline is newPipeline plus an enabled compiled-model cache.
func newCachedPipeline(t testing.TB, trees, depth, rows int) (*pipeline.Pipeline, *forest.Forest, *dataset.Dataset) {
	t.Helper()
	p, f, data := newPipeline(t, trees, depth, rows)
	p.Cache = pipeline.NewModelCache(4)
	return p, f, data
}

func TestCacheHitOnRepeatedQuery(t *testing.T) {
	p, _, _ := newCachedPipeline(t, 8, 10, 300)
	q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"

	cold, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	warm, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second query missed the cache")
	}
	st := warm.CacheStats
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %v", st)
	}

	// Predictions must be byte-identical cold vs warm.
	for i := range cold.Predictions {
		if cold.Predictions[i] != warm.Predictions[i] {
			t.Fatalf("prediction %d differs cold vs warm", i)
		}
	}

	// The hit's model pre-processing span must be near-zero (Fig. 11
	// tightly-integrated story), far below the miss's deserialize cost.
	coldPre := cold.Timeline.Component(pipeline.StageModelPreproc)
	warmPre := warm.Timeline.Component(pipeline.StageModelPreproc)
	if warmPre <= 0 {
		t.Fatal("cache-hit model pre-processing span missing")
	}
	if warmPre*10 >= coldPre {
		t.Fatalf("cache-hit model preproc %v not near-zero vs cold %v", warmPre, coldPre)
	}
	if warm.Timeline.Total() >= cold.Timeline.Total() {
		t.Fatalf("warm simulated total %v not below cold %v",
			warm.Timeline.Total(), cold.Timeline.Total())
	}
}

// TestCachedMatchesUncachedAllCPUEngines verifies the acceptance criterion:
// cached scoring produces byte-identical predictions to the uncached path
// across every CPU engine.
func TestCachedMatchesUncachedAllCPUEngines(t *testing.T) {
	cached, _, _ := newCachedPipeline(t, 10, 10, 700)
	plain, _, _ := newPipeline(t, 10, 10, 700)
	for _, be := range []string{"CPU_SKLearn", "CPU_ONNX", "CPU_ONNX_52th"} {
		q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='" + be + "'"
		want, err := plain.ExecQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		// Run twice so the second pass exercises the warm path.
		for pass := 0; pass < 2; pass++ {
			got, err := cached.ExecQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Predictions) != len(want.Predictions) {
				t.Fatalf("%s pass %d: %d vs %d predictions", be, pass, len(got.Predictions), len(want.Predictions))
			}
			for i := range want.Predictions {
				if got.Predictions[i] != want.Predictions[i] {
					t.Fatalf("%s pass %d: prediction %d differs", be, pass, i)
				}
			}
			// The result table is bulk-assembled; it must mirror predictions.
			if got.Table.NumRows() != len(want.Predictions) {
				t.Fatalf("%s: result table rows = %d", be, got.Table.NumRows())
			}
			for i := range want.Predictions {
				if int(got.Table.Cell(i, 0).I) != want.Predictions[i] {
					t.Fatalf("%s: result table row %d differs", be, i)
				}
			}
		}
	}
}

// TestCacheInvalidationOnModelReplace: replacing a model under the same name
// must miss (checksum re-check) and score with the new model.
func TestCacheInvalidationOnModelReplace(t *testing.T) {
	p, _, data := newCachedPipeline(t, 4, 8, 200)
	q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"
	if _, err := p.ExecQuery(q); err != nil {
		t.Fatal(err)
	}
	if res, err := p.ExecQuery(q); err != nil || !res.CacheHit {
		t.Fatalf("warm query: hit=%v err=%v", res.CacheHit, err)
	}

	// Replace the model with a very different one (single stump).
	f2, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 1,
		Tree:     forest.TrainConfig{MaxDepth: 1},
		Seed:     99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DB.DeleteModel("iris_rf"); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.StoreModel("iris_rf", f2); err != nil {
		t.Fatal(err)
	}

	res, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("stale cache entry served after model replacement")
	}
	want := f2.PredictBatch(data)
	for i := range want {
		if res.Predictions[i] != want[i] {
			t.Fatalf("post-replacement prediction %d not from the new model", i)
		}
	}
}

// TestCorruptReplacementNeverEntersCache: validation is paid once per cache
// entry, on the miss that creates it — so the miss after a model is replaced
// under its name must validate the new blob, and a blob that fails (right
// checksum, a split on a feature the model does not have) must fail the
// query without leaving an entry that later queries would trust unwalked.
func TestCorruptReplacementNeverEntersCache(t *testing.T) {
	p, _, _ := newCachedPipeline(t, 4, 8, 200)
	q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"
	if _, err := p.ExecQuery(q); err != nil {
		t.Fatal(err)
	}
	good, err := p.DB.LoadModelBlob("iris_rf")
	if err != nil {
		t.Fatal(err)
	}

	const mark = 1234.5 // a threshold no other field's bytes spell
	stump := &forest.Forest{NumFeatures: 4, NumClasses: 3, Trees: []*forest.Tree{{
		NumFeatures: 4, NumClasses: 3,
		Root: &forest.Node{Feature: 2, Threshold: mark,
			Left: &forest.Node{Class: 0}, Right: &forest.Node{Class: 1}},
	}}}
	bad, err := model.Marshal(stump)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(bad, binary.LittleEndian.AppendUint32(nil, math.Float32bits(mark)))
	if at < 4 {
		t.Fatal("threshold not found in the blob")
	}
	binary.LittleEndian.PutUint32(bad[at-4:], 9) // the split's feature index
	body := bad[:len(bad)-4]
	binary.LittleEndian.PutUint32(bad[len(body):], crc32.ChecksumIEEE(body))

	replace := func(blob []byte) {
		t.Helper()
		if err := p.DB.DeleteModel("iris_rf"); err != nil {
			t.Fatal(err)
		}
		if err := p.DB.StoreModelBlob("iris_rf", blob); err != nil {
			t.Fatal(err)
		}
	}
	replace(bad)
	before := p.Cache.Stats()
	for i := 0; i < 2; i++ {
		if _, err := p.ExecQuery(q); err == nil || !strings.Contains(err.Error(), "split feature 9 out of range") {
			t.Fatalf("query %d over the corrupt model: err = %v, want the structural check", i, err)
		}
	}
	after := p.Cache.Stats()
	if after.Misses != before.Misses+2 || after.Entries != before.Entries {
		t.Fatalf("corrupt blob must miss every time and cache nothing: %v -> %v", before, after)
	}

	// The original bytes come back: same key as the entry validated at the
	// top, so this is a hit and needs no second walk.
	replace(good)
	if res, err := p.ExecQuery(q); err != nil || !res.CacheHit {
		t.Fatalf("restored model: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
}

// TestCacheEviction fills the LRU beyond capacity.
func TestCacheEviction(t *testing.T) {
	p, _, _ := newCachedPipeline(t, 2, 4, 100)
	p.Cache = pipeline.NewModelCache(2)
	names := []string{"m1", "m2", "m3"}
	for i, name := range names {
		f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
			NumTrees: 2,
			Tree:     forest.TrainConfig{MaxDepth: 3},
			Seed:     uint64(i + 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.DB.StoreModel(name, f); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecQuery("EXEC sp_score_model @model='" + name + "', @data='iris', @backend='CPU_ONNX'"); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Cache.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, capacity 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// m1 was evicted (LRU): scoring it again misses; m3 still hits.
	if res, _ := p.ExecQuery("EXEC sp_score_model @model='m1', @data='iris', @backend='CPU_ONNX'"); res.CacheHit {
		t.Fatal("evicted entry hit")
	}
	if res, _ := p.ExecQuery("EXEC sp_score_model @model='m3', @data='iris', @backend='CPU_ONNX'"); !res.CacheHit {
		t.Fatal("resident entry missed")
	}
}

// TestSnapshotCacheInvalidatedByInsert: appending rows to the scored table
// must be visible to the next query (which views the table's live block; the
// name dates from the version-keyed snapshot cache).
func TestSnapshotCacheInvalidatedByInsert(t *testing.T) {
	p, _, _ := newCachedPipeline(t, 2, 6, 50)
	q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"
	res, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 50 {
		t.Fatalf("baseline rows = %d", len(res.Predictions))
	}
	if _, err := p.ExecQuery("INSERT INTO iris VALUES (5.1, 3.5, 1.4, 0.2, 0)"); err != nil {
		t.Fatal(err)
	}
	res, err = p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 51 {
		t.Fatalf("post-insert rows = %d, the query scored a stale table", len(res.Predictions))
	}
}

// TestLimitValidation covers the @limit fix: type errors before value
// errors.
func TestLimitValidation(t *testing.T) {
	p, _, _ := newPipeline(t, 2, 6, 100)
	_, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @limit='ten'")
	if err == nil {
		t.Fatal("string @limit accepted")
	}
	if !strings.Contains(err.Error(), "must be a number") {
		t.Fatalf("string @limit reported %q, want a type error", err)
	}
	_, err = p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @limit=0")
	if err == nil {
		t.Fatal("zero @limit accepted")
	}
	if !strings.Contains(err.Error(), "positive") {
		t.Fatalf("zero @limit reported %q, want a value error", err)
	}
}

// TestEstimateMatchesCachedMissRun: with a cache attached, a cold (miss)
// query keeps the exact baseline timeline shape.
func TestEstimateMatchesCachedMissRun(t *testing.T) {
	p, f, data := newCachedPipeline(t, 8, 10, 400)
	blob, err := p.DB.LoadModelBlob("iris_rf")
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.Run(blob, data, "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := p.Estimate(f.ComputeStats(), 400, int64(len(blob)), "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	if run.Timeline.Total() != est.Total() {
		t.Fatalf("cold cached Run total %v != Estimate total %v", run.Timeline.Total(), est.Total())
	}
}

// TestCacheReplaceBlobRelowersAndKeepsOldEntry extends the invalidation
// test down to the blob level: replacing the stored bytes in place (same
// model name) must make the next query miss, pay the full deserialize +
// compile cost again, and leave BOTH compiled entries resident (the stale
// one stops matching and ages out of the LRU rather than being purged).
func TestCacheReplaceBlobRelowersAndKeepsOldEntry(t *testing.T) {
	p, _, data := newCachedPipeline(t, 6, 8, 250)
	q := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX'"

	cold, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("warm query missed")
	}

	f2, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees:  6,
		Tree:      forest.TrainConfig{MaxDepth: 8},
		Seed:      4242, // different seed => different trees, same shape
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DB.DeleteModel("iris_rf"); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.StoreModel("iris_rf", f2); err != nil {
		t.Fatal(err)
	}

	missesBefore := p.Cache.Stats().Misses
	replaced, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if replaced.CacheHit {
		t.Fatal("replaced blob served from the stale entry")
	}
	st := replaced.CacheStats
	if st.Misses != missesBefore+1 {
		t.Fatalf("misses %d -> %d, want one new miss", missesBefore, st.Misses)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d after replacement, want stale + fresh", st.Entries)
	}

	// The miss must pay full model pre-processing again (re-lowering), the
	// same order as the original cold query and far above the hit cost.
	coldPre := cold.Timeline.Component(pipeline.StageModelPreproc)
	warmPre := warm.Timeline.Component(pipeline.StageModelPreproc)
	replPre := replaced.Timeline.Component(pipeline.StageModelPreproc)
	if replPre <= warmPre*10 {
		t.Fatalf("replacement preproc %v not re-lowered (hit cost %v, cold %v)", replPre, warmPre, coldPre)
	}

	want := f2.PredictBatch(data)
	for i := range want {
		if replaced.Predictions[i] != want[i] {
			t.Fatalf("prediction %d not from the replacement model", i)
		}
	}

	// And the replacement itself is now cached.
	again, err := p.ExecQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("replacement model not cached after its miss")
	}
}
