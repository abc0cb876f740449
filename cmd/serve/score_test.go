package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"accelscore/internal/exec"
	"accelscore/internal/router"
)

// startShardServer builds a serve handler configured as one scale-out shard.
func startShardServer(t *testing.T, shardID string) *httptest.Server {
	return startFaultyShardServer(t, shardID, "")
}

// startFaultyShardServer is startShardServer with a fault plan armed on the
// shard's pipeline.
func startFaultyShardServer(t *testing.T, shardID, faultSpec string) *httptest.Server {
	t.Helper()
	s, handler, err := newServer(50, exec.Config{},
		faultSpec, 7, nil, obsConfig{ShardID: shardID})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// postScore POSTs req to /score with no Accept header and decodes the
// frame it answers with.
func postScore(t *testing.T, url string, req router.Request) (int, *router.Result) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frame, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("/score reply (HTTP %d) is not a frame: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, res
}

// TestScoreEndpoint drives the shard-side wire contract: a partitioned
// sub-query scores only its stripe's rows and lists no ordinals, results
// carry the shard id, and query-level failures come back with the
// bad_request code so the router never reroutes them.
func TestScoreEndpoint(t *testing.T) {
	ts := startShardServer(t, "shard-7")

	// The 50-row table is one short word: all of it is stripe 0 of 2.
	code, res := postScore(t, ts.URL, router.Request{
		Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "0/2",
	})
	if code != http.StatusOK || res.Error != "" {
		t.Fatalf("/score = %d, error %q", code, res.Error)
	}
	if res.ShardID != "shard-7" {
		t.Fatalf("shard id %q, want shard-7", res.ShardID)
	}
	if res.RowsScanned != 50 || res.RowsScored != 50 || len(res.Predictions) != 50 || res.ScoredRows != nil {
		t.Fatalf("partition 0/2 scored %d of %d rows: %d predictions, %d ordinals",
			res.RowsScored, res.RowsScanned, len(res.Predictions), len(res.ScoredRows))
	}

	// The complementary stripe is empty.
	code2, res2 := postScore(t, ts.URL, router.Request{
		Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2",
	})
	if code2 != http.StatusOK || res2.Error != "" {
		t.Fatalf("/score 1/2 = %d, error %q", code2, res2.Error)
	}
	if res2.RowsScanned != 50 || res2.RowsScored != 0 || res2.Predictions != nil {
		t.Fatalf("partition 1/2 scored %d of %d rows", res2.RowsScored, res2.RowsScanned)
	}

	// Unknown model: query-level, never rerouteable.
	code3, res3 := postScore(t, ts.URL, router.Request{Model: "nope", Data: "iris"})
	if code3 != http.StatusBadRequest || res3.Code != router.CodeBadRequest {
		t.Fatalf("unknown model = %d code %q, want 400 %q", code3, res3.Code, router.CodeBadRequest)
	}

	// Malformed wire request.
	resp, err := http.Post(ts.URL+"/score", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
}

// TestBadQueriesLeaveTheShardServing: a burst of /score requests naming an
// unknown model is five 400s and nothing else — no query degrades to the
// fallback engine (a query error is not a device fault), and the valid query
// behind them is a 200, not a 500 that would make the router reroute and
// charge a healthy shard.
func TestBadQueriesLeaveTheShardServing(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	fallbacks := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, exec.MetricFallbacksTotal) {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	before := fallbacks()
	for i := 0; i < 5; i++ {
		code, res := postScore(t, ts.URL, router.Request{Model: "nope", Data: "iris"})
		if code != http.StatusBadRequest || res.Code != router.CodeBadRequest {
			t.Fatalf("bad query %d = %d code %q, want 400 %q", i, code, res.Code, router.CodeBadRequest)
		}
	}
	code, res := postScore(t, ts.URL, router.Request{Model: "iris_rf", Data: "iris"})
	if code != http.StatusOK || res.Error != "" {
		t.Fatalf("valid query after the burst = %d, error %q", code, res.Error)
	}
	if after := fallbacks(); after != before {
		t.Fatalf("fallbacks moved:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestWarmEndpoint checks replica cache warming: first warm misses (loads),
// second hits, unknown models 404.
func TestWarmEndpoint(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	type warmPayload struct{ Model, Status, Error string }
	warm := func(model string) (int, warmPayload) {
		resp, err := http.Post(ts.URL+"/warm?model="+model, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p warmPayload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, p
	}
	if code, p := warm("iris_rf"); code != http.StatusOK || p.Status != "miss" {
		t.Fatalf("first warm = %d %q", code, p.Status)
	}
	if code, p := warm("iris_rf"); code != http.StatusOK || p.Status != "hit" {
		t.Fatalf("second warm = %d %q", code, p.Status)
	}
	if code, p := warm("nope"); code != http.StatusNotFound || p.Error == "" {
		t.Fatalf("unknown model warm = %d %+v", code, p)
	}
}

// TestHealthzShardInfo is the healthz satellite: the payload identifies the
// shard, the build and the fsync policy.
func TestHealthzShardInfo(t *testing.T) {
	ts := startShardServer(t, "shard-3")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status      string `json:"status"`
		ShardID     string `json:"shard_id"`
		GitDescribe string `json:"git_describe"`
		Fsync       string `json:"fsync"`
		Durability  string `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ShardID != "shard-3" {
		t.Fatalf("healthz %+v", h)
	}
	if h.GitDescribe == "" {
		t.Fatal("healthz missing git_describe")
	}
	if h.Fsync != "disabled" || h.Durability != "disabled" {
		t.Fatalf("in-memory server reports fsync=%q durability=%q", h.Fsync, h.Durability)
	}
}

// TestHTTPShardAgainstServe closes the loop between both wire ends: the
// router's HTTPShard backend scoring through a real serve process must agree
// with the in-process pipeline, including warm and health probes.
func TestHTTPShardAgainstServe(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	shard, err := router.NewHTTPShard("shard-0", ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := shard.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	status, err := shard.Warm(ctx, "iris_rf")
	if err != nil || status != "miss" {
		t.Fatalf("warm = %q, %v", status, err)
	}
	res, err := shard.Score(ctx, router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX"})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScored != res.RowsScanned || len(res.Predictions) != res.RowsScored {
		t.Fatalf("full scan scored %d of %d rows, %d predictions",
			res.RowsScored, res.RowsScanned, len(res.Predictions))
	}
	if !res.CacheHit {
		t.Fatal("warmed shard missed its model cache")
	}
	if _, err := shard.Score(ctx, router.Request{Model: "nope", Data: "iris"}); !router.IsNoReroute(err) {
		t.Fatalf("unknown model over HTTP should be NoReroute, got %v", err)
	}

	// A bare POST gets the Result HTTPShard gets, for every request shape.
	for _, req := range []router.Request{
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX"},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2"},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "0/3", Limit: 20},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2", Where: "petal_width < 1.5"},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Where: "petal_width > 100"},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "0/2", Agg: "count"},
		{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2", Agg: "group_count"},
	} {
		viaFrame, err := shard.Score(ctx, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		code, viaPost := postScore(t, ts.URL, req)
		if code != http.StatusOK || viaPost.Error != "" {
			t.Fatalf("%+v: bare /score = %d, error %q", req, code, viaPost.Error)
		}
		if viaFrame.RowsScanned == 0 || viaFrame.TraceID == viaPost.TraceID {
			t.Fatalf("%+v: scanned %d rows, trace ids %q and %q", req, viaFrame.RowsScanned, viaFrame.TraceID, viaPost.TraceID)
		}
		viaFrame.TraceID, viaPost.TraceID = "", "" // one per execution
		if !reflect.DeepEqual(viaFrame, viaPost) {
			t.Fatalf("%+v: the replies disagree:\nHTTPShard %+v\n     POST %+v", req, viaFrame, viaPost)
		}
	}
}

// TestEveryScoreReplyIsAFrame: /score answers one frame with its length
// stated whatever the Accept header says, and a failure of any class — a
// query-level refusal, a malformed body, the wrong method — is a frame too.
func TestEveryScoreReplyIsAFrame(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	send := func(method, accept, body string) (*http.Response, *router.Result) {
		t.Helper()
		hreq, err := http.NewRequest(method, ts.URL+"/score", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			hreq.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != router.FrameContentType || resp.ContentLength != int64(len(frame)) {
			t.Fatalf("%s Accept %q: Content-Type %q, Content-Length %d for %d bytes",
				method, accept, ct, resp.ContentLength, len(frame))
		}
		res, err := router.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%s Accept %q: reply is not a frame: %v", method, accept, err)
		}
		return resp, res
	}
	ok := `{"model":"iris_rf","data":"iris","backend":"CPU_ONNX","partition":"0/2"}`
	for _, accept := range []string{"", "application/json", router.FrameContentType} {
		resp, res := send(http.MethodPost, accept, ok)
		if resp.StatusCode != http.StatusOK || res.ShardID != "shard-0" || len(res.Predictions) != 50 || res.ScoredRows != nil {
			t.Fatalf("Accept %q: HTTP %d, %+v", accept, resp.StatusCode, res)
		}
		for _, fail := range []struct {
			method, body string
			status       int
		}{
			{http.MethodPost, `{"model":"nope","data":"iris"}`, http.StatusBadRequest},
			{http.MethodPost, "{", http.StatusBadRequest},
			{http.MethodGet, "", http.StatusMethodNotAllowed},
		} {
			resp, res := send(fail.method, accept, fail.body)
			if resp.StatusCode != fail.status || res.Code != router.CodeBadRequest || res.Error == "" {
				t.Fatalf("%s %q Accept %q = HTTP %d %+v, want %d %q",
					fail.method, fail.body, accept, resp.StatusCode, res, fail.status, router.CodeBadRequest)
			}
		}
	}
}

// devicePlans each make CPU_SKLearn fault: a crash on every invocation, and
// one busy invocation. CPU_SKLearn is the executor's fallback engine, so
// nothing on the shard absorbs either fault: it reaches the endpoint.
var devicePlans = []string{"CPU_SKLearn:invoke:crash", "CPU_SKLearn:invoke:busy:once=1"}

// TestScoreDeviceFaultIsInternal: a shard-local device failure is the
// shard's trouble, not the query's — /score answers 500 internal (which the
// router reroutes), not 400 bad_request (which fails the query everywhere).
func TestScoreDeviceFaultIsInternal(t *testing.T) {
	for _, plan := range devicePlans {
		t.Run(plan, func(t *testing.T) {
			ts := startFaultyShardServer(t, "shard-0", plan)
			code, res := postScore(t, ts.URL, router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"})
			if code != http.StatusInternalServerError || res.Code != router.CodeInternal || res.Error == "" {
				t.Fatalf("device fault = %d code %q (%q), want 500 %q", code, res.Code, res.Error, router.CodeInternal)
			}
			// A healthy engine on the same shard still answers.
			if code, res := postScore(t, ts.URL, router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX"}); code != http.StatusOK {
				t.Fatalf("healthy engine = %d (%q)", code, res.Error)
			}
		})
	}
}

// TestRouterReroutesAroundFaultyShard: with one of two replicas faulting on
// its first invocation or on every one, the router moves that replica's
// partition to the healthy one, returns the answer a healthy tier returns,
// and holds the failure against the sick shard's health.
func TestRouterReroutesAroundFaultyShard(t *testing.T) {
	ctx := context.Background()
	const sql = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"
	tier := func(faultSpec string) *router.Router {
		var backends []router.Backend
		for i, spec := range []string{faultSpec, ""} {
			name := fmt.Sprintf("shard-%d", i)
			shard, err := router.NewHTTPShard(name, startFaultyShardServer(t, name, spec).URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, shard)
		}
		r, err := router.New(router.Config{Backends: backends, Health: &router.HealthConfig{FailThreshold: 1}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	want, err := tier("").Query(ctx, sql, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, plan := range devicePlans {
		t.Run(plan, func(t *testing.T) {
			r := tier(plan)
			got, err := r.Query(ctx, sql, router.QueryOptions{})
			if err != nil {
				t.Fatalf("one sick replica failed the whole query: %v", err)
			}
			if got.Reroutes != 1 || !reflect.DeepEqual(got.Predictions, want.Predictions) {
				t.Fatalf("%d reroutes, %d predictions (healthy tier: %d), want a bit-identical answer over 1 reroute",
					got.Reroutes, len(got.Predictions), len(want.Predictions))
			}
			if st := r.Health().State(0); st == router.ShardHealthy {
				t.Fatalf("the faulty shard's health never heard about the failure: still %v", st)
			}
			if st := r.Health().State(1); st != router.ShardHealthy {
				t.Fatalf("the healthy shard is %v", st)
			}
		})
	}
}
