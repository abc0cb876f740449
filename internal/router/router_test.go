package router_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/httpapi"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/router"
)

// newShardPipeline builds one data-symmetric replica: full demo table,
// trained forest, its own model cache.
func newShardPipeline(t testing.TB, rows int) *pipeline.Pipeline {
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
		NumTrees:  8,
		Tree:      forest.TrainConfig{MaxDepth: 10},
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
		Cache:    pipeline.NewModelCache(4),
	}
}

// newLocalRouter builds a router over n in-process shard replicas plus one
// extra single-node pipeline as the bit-identical oracle.
func newLocalRouter(t testing.TB, n, rows int, cfg router.Config) (*router.Router, *pipeline.Pipeline) {
	t.Helper()
	backends := make([]router.Backend, n)
	for i := range backends {
		backends[i] = &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: newShardPipeline(t, rows)}
	}
	cfg.Backends = backends
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, newShardPipeline(t, rows)
}

const plainSQL = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX'"

func TestRouterBitIdenticalPlain(t *testing.T) {
	r, single := newLocalRouter(t, 3, 400, router.Config{Obs: obs.NewObserver()})
	want, err := single.ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 3 {
		t.Fatalf("scatter width %d", got.Shards)
	}
	if len(got.Predictions) != len(want.Predictions) {
		t.Fatalf("merged %d predictions, single-node %d", len(got.Predictions), len(want.Predictions))
	}
	for i := range want.Predictions {
		if got.Predictions[i] != want.Predictions[i] {
			t.Fatalf("row %d: merged %d, single-node %d", i, got.Predictions[i], want.Predictions[i])
		}
	}
	if got.ScoredRows != nil {
		t.Fatal("full merge kept scored-row ordinals; single-node shape is nil")
	}
	if got.RowsScanned != want.RowsScanned || got.RowsScored != want.RowsScored {
		t.Fatalf("rows scanned/scored %d/%d, single-node %d/%d",
			got.RowsScanned, got.RowsScored, want.RowsScanned, want.RowsScored)
	}
	if got.Backend != want.Backend {
		t.Fatalf("backend %q vs %q", got.Backend, want.Backend)
	}
	// Merged timeline is the per-stage max across shards: total must not
	// exceed the single-node total (each shard scored a third of the rows)
	// and must be positive.
	if got.Timeline.Total() <= 0 || got.Timeline.Total() > want.Timeline.Total() {
		t.Fatalf("merged timeline %v vs single-node %v", got.Timeline.Total(), want.Timeline.Total())
	}
}

func TestRouterBitIdenticalWhereAndAgg(t *testing.T) {
	r, single := newLocalRouter(t, 4, 300, router.Config{})
	whereSQL := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX', @where='petal_width < 1.5'"
	want, err := single.ExecQuery(whereSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), whereSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Predictions) != len(want.Predictions) || len(got.ScoredRows) != len(want.ScoredRows) {
		t.Fatalf("filtered merge: %d/%d preds, %d/%d ordinals",
			len(got.Predictions), len(want.Predictions), len(got.ScoredRows), len(want.ScoredRows))
	}
	for i := range want.Predictions {
		if got.Predictions[i] != want.Predictions[i] || got.ScoredRows[i] != want.ScoredRows[i] {
			t.Fatalf("filtered row %d: (%d,%d) vs (%d,%d)", i,
				got.ScoredRows[i], got.Predictions[i], want.ScoredRows[i], want.Predictions[i])
		}
	}

	aggSQL := "SELECT prediction, COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_ONNX') GROUP BY prediction"
	wantAgg, err := single.ExecQuery(aggSQL)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, err := r.Query(context.Background(), aggSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotAgg.Table.NumRows() != wantAgg.Table.NumRows() {
		t.Fatalf("agg rows %d vs %d", gotAgg.Table.NumRows(), wantAgg.Table.NumRows())
	}
	for i, row := range wantAgg.Table.Rows() {
		grow := gotAgg.Table.Rows()[i]
		if grow[0].I != row[0].I || grow[1].I != row[1].I {
			t.Fatalf("agg row %d: (%d,%d) vs (%d,%d)", i, grow[0].I, grow[1].I, row[0].I, row[1].I)
		}
	}
}

func TestRouterTenantAffinity(t *testing.T) {
	r, single := newLocalRouter(t, 3, 200, router.Config{})
	want, err := single.ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 1 {
		t.Fatalf("tenant-affine query scattered to %d sub-queries", got.Shards)
	}
	for i := range want.Predictions {
		if got.Predictions[i] != want.Predictions[i] {
			t.Fatalf("tenant row %d: %d vs %d", i, got.Predictions[i], want.Predictions[i])
		}
	}
	home := pipeline.TenantShard("acme", 3)
	if home < 0 || home > 2 {
		t.Fatalf("tenant home shard %d", home)
	}
}

// failingBackend wraps a Backend, failing every Score call.
type failingBackend struct {
	router.Backend
}

func (f *failingBackend) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	return nil, errors.New("shard killed")
}

// partitionKiller wraps a Backend, failing any sub-query for one specific
// partition — simulating a data shard whose rows are unreachable on every
// replica (so rerouting cannot save it), while other partitions succeed.
type partitionKiller struct {
	router.Backend
	part string
}

func (p *partitionKiller) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	if req.Partition == p.part {
		return nil, errors.New("partition data unreachable")
	}
	return p.Backend.Score(ctx, req)
}

// TestRouterPartialShardFailure is the merge-correctness-under-failure
// check: a dead shard's partition reroutes to a healthy replica and the
// answer stays bit-identical; a partition no replica can serve fails the
// whole query loudly — a typed PartialError naming it, and on /query a 503
// with no predictions — never an answer with rows missing or zero-filled.
func TestRouterPartialShardFailure(t *testing.T) {
	const n, rows = 3, 300
	backends := make([]router.Backend, n)
	for i := range backends {
		backends[i] = &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: newShardPipeline(t, rows)}
	}
	// Kill shard 1 outright; every partition still lands on a healthy
	// replica, so first check pure rerouting.
	backends[1] = &failingBackend{Backend: backends[1]}
	r, err := router.New(router.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	single := newShardPipeline(t, rows)
	want, err := single.ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reroutes == 0 {
		t.Fatal("dead shard's partition was not rerouted")
	}
	if !slices.Equal(got.Predictions, want.Predictions) || got.ScoredRows != nil {
		t.Fatalf("post-reroute answer differs from single-node: %d vs %d predictions", len(got.Predictions), len(want.Predictions))
	}

	// Now kill ALL routes for partition 1's rows: every replica refuses
	// that partition, so no reroute can save it while partitions 0 and 2
	// still succeed.
	allDead := make([]router.Backend, n)
	live := newShardPipeline(t, rows)
	for i := range allDead {
		allDead[i] = &partitionKiller{
			Backend: &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: live},
			part:    "1/3",
		}
	}
	dead, err := router.New(router.Config{Backends: allDead})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dead.Query(context.Background(), plainSQL, router.QueryOptions{})
	var pe *router.PartialError
	if res != nil || !errors.As(err, &pe) || !slices.Equal(pe.Missing, []int{1}) || pe.Errs[1] == nil {
		t.Fatalf("query over a dead stripe = %v, %v; want no answer and a *router.PartialError naming stripe 1", res, err)
	}

	rec := httptest.NewRecorder()
	router.Handler(dead).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?sql="+url.QueryEscape(plainSQL), nil))
	var qr router.QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || qr.OK || qr.Predictions != nil || qr.Error == "" {
		t.Fatalf("/query over a dead stripe = HTTP %d %+v, want 503 ok:false with no predictions", rec.Code, qr)
	}
}

func TestRouterRejectsBadSQL(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 100, router.Config{})
	for _, sql := range []string{
		"SELECT * FROM iris",
		"EXEC sp_other @model='x'",
		"EXEC sp_score_model @model='iris_rf', @data='iris', @partition='0/2'",
		"garbage",
	} {
		if _, err := r.Query(context.Background(), sql, router.QueryOptions{}); err == nil {
			t.Fatalf("router accepted %q", sql)
		}
	}
	// Unknown model: query-level error, never partial, never charged to the
	// shards that answered it.
	_, err := r.Query(context.Background(),
		"EXEC sp_score_model @model='nope', @data='iris'", router.QueryOptions{})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	var pe *router.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("query-level error surfaced as PartialError: %v", err)
	}
	for i := 0; i < r.Shards(); i++ {
		if snap := r.Health().Snapshot(i); snap.State != router.ShardHealthy || snap.Transitions != 0 {
			t.Fatalf("query-level error charged shard %d: %+v", i, snap)
		}
	}
}

func TestRouterWarmFanOut(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 100, router.Config{Obs: obs.NewObserver()})
	statuses := r.Warm(context.Background(), "iris_rf")
	if len(statuses) != 2 {
		t.Fatalf("%d warm statuses", len(statuses))
	}
	for _, s := range statuses {
		if s.Error != "" || s.Status != "miss" {
			t.Fatalf("cold warm status %+v, want miss", s)
		}
	}
	for _, s := range r.Warm(context.Background(), "iris_rf") {
		if s.Status != "hit" {
			t.Fatalf("second warm status %+v, want hit", s)
		}
	}
	if _, err := r.Query(context.Background(), plainSQL, router.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Query(context.Background(), plainSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("warmed shards missed the model cache")
	}
}

// TestRouterHandlerRefusesOverLimitBody: a statement body over the limit is
// refused with 413, not cut at the limit and run.
func TestRouterHandlerRefusesOverLimitBody(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 200, router.Config{Obs: obs.NewObserver()})
	srv := httptest.NewServer(router.Handler(r))
	defer srv.Close()
	// The first MiB is the statement and blanks, which would score if run.
	body := plainSQL + strings.Repeat(" ", httpapi.MaxStatementBytes)
	resp, err := srv.Client().Post(srv.URL+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr router.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || qr.OK {
		t.Fatalf("over-limit body: HTTP %d, ok=%v err=%q; want 413", resp.StatusCode, qr.OK, qr.Error)
	}
}

func TestRouterHandler(t *testing.T) {
	r, single := newLocalRouter(t, 3, 200, router.Config{Obs: obs.NewObserver()})
	srv := httptest.NewServer(router.Handler(r))
	defer srv.Close()

	want, err := single.ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/query", "text/plain", strings.NewReader(plainSQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr router.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !qr.OK {
		t.Fatalf("HTTP %d, ok=%v err=%q", resp.StatusCode, qr.OK, qr.Error)
	}
	if qr.Shards != 3 {
		t.Fatalf("shards=%d", qr.Shards)
	}
	if len(qr.Predictions) != len(want.Predictions) {
		t.Fatalf("%d predictions, want %d", len(qr.Predictions), len(want.Predictions))
	}
	for i := range want.Predictions {
		if qr.Predictions[i] != want.Predictions[i] {
			t.Fatalf("row %d: %d vs %d", i, qr.Predictions[i], want.Predictions[i])
		}
	}

	hz, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != 200 {
		t.Fatalf("healthz HTTP %d", hz.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Shards []struct {
			Shard string `json:"shard"`
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Shards) != 3 || health.Shards[0].State != "healthy" {
		t.Fatalf("health %+v", health)
	}

	mt, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mt.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		obs.MetricRouterQueriesTotal, obs.MetricRouterScatterWidth,
		obs.MetricRouterStragglerGap, obs.MetricRouterShardLatency,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}

	bad, err := srv.Client().Get(srv.URL + "/query?sql=" + "SELECT%201")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("non-scoring SQL got HTTP %d", bad.StatusCode)
	}
}
