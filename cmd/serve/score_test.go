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
	_, handler, err := newServer(50, exec.Config{},
		faultSpec, 7, nil, obsConfig{ShardID: shardID})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

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
	var res router.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &res
}

// TestScoreEndpoint drives the shard-side wire contract: a partitioned
// sub-query scores only its partition's rows, results carry the shard id,
// and query-level failures come back with the bad_request code so the
// router never reroutes them.
func TestScoreEndpoint(t *testing.T) {
	ts := startShardServer(t, "shard-7")

	code, res := postScore(t, ts.URL, router.Request{
		Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "0/2",
	})
	if code != http.StatusOK || res.Error != "" {
		t.Fatalf("/score = %d, error %q", code, res.Error)
	}
	if res.ShardID != "shard-7" {
		t.Fatalf("shard id %q, want shard-7", res.ShardID)
	}
	if res.RowsScored == 0 || res.RowsScored >= res.RowsScanned {
		t.Fatalf("partition 0/2 scored %d of %d rows", res.RowsScored, res.RowsScanned)
	}
	if len(res.ScoredRows) != len(res.Predictions) {
		t.Fatalf("%d ordinals for %d predictions", len(res.ScoredRows), len(res.Predictions))
	}

	// The complementary partition covers the remaining rows exactly.
	code2, res2 := postScore(t, ts.URL, router.Request{
		Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2",
	})
	if code2 != http.StatusOK || res2.Error != "" {
		t.Fatalf("/score 1/2 = %d, error %q", code2, res2.Error)
	}
	if res.RowsScored+res2.RowsScored != res.RowsScanned {
		t.Fatalf("partitions cover %d+%d of %d rows",
			res.RowsScored, res2.RowsScored, res.RowsScanned)
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
// unknown model is five 400s and nothing else — the CPU device's breaker does
// not move, so the valid query behind them is a 200, not a 500 that would
// make the router reroute and charge a healthy shard.
func TestBadQueriesLeaveTheShardServing(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	transitions := func() string {
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
			if strings.HasPrefix(line, exec.MetricBreakerTransitionsTotal) {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	before := transitions()
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
	if after := transitions(); after != before {
		t.Fatalf("breaker transitions moved:\nbefore:\n%s\nafter:\n%s", before, after)
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

	// Both representations of /score carry the same Result: HTTPShard asks
	// for the binary frame, a bare POST gets JSON.
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
		code, viaJSON := postScore(t, ts.URL, req)
		if code != http.StatusOK || viaJSON.Error != "" {
			t.Fatalf("%+v: JSON /score = %d, error %q", req, code, viaJSON.Error)
		}
		if viaFrame.RowsScanned == 0 || viaFrame.TraceID == viaJSON.TraceID {
			t.Fatalf("%+v: scanned %d rows, trace ids %q and %q", req, viaFrame.RowsScanned, viaFrame.TraceID, viaJSON.TraceID)
		}
		viaFrame.TraceID, viaJSON.TraceID = "", "" // one per execution
		if !reflect.DeepEqual(viaFrame, viaJSON) {
			t.Fatalf("%+v: the encodings disagree:\nframe %+v\n json %+v", req, viaFrame, viaJSON)
		}
	}
}

// TestScoreNegotiation: the frame is sent only to a caller that asks for it,
// with its length stated; a failure is the small JSON Result either way.
func TestScoreNegotiation(t *testing.T) {
	ts := startShardServer(t, "shard-0")
	post := func(accept string, req router.Request) *http.Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/score", bytes.NewReader(body))
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
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	ok := router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "0/2"}

	resp := post(router.FrameContentType, ok)
	frame, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != router.FrameContentType || resp.ContentLength != int64(len(frame)) {
		t.Fatalf("frame reply: Content-Type %q, Content-Length %d for %d bytes", ct, resp.ContentLength, len(frame))
	}
	res, err := router.DecodeFrame(frame)
	if err != nil || res.ShardID != "shard-0" || len(res.Predictions) == 0 || len(res.ScoredRows) != len(res.Predictions) {
		t.Fatalf("frame reply decodes to %+v, %v", res, err)
	}

	for _, accept := range []string{"", "*/*", "application/json"} {
		if ct := post(accept, ok).Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Accept %q answered with %q", accept, ct)
		}
	}

	resp = post(router.FrameContentType, router.Request{Model: "nope", Data: "iris"})
	var failed router.Result
	if err := json.NewDecoder(resp.Body).Decode(&failed); err != nil {
		t.Fatalf("error reply is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || failed.Code != router.CodeBadRequest || failed.Error == "" {
		t.Fatalf("error reply = %d %+v", resp.StatusCode, failed)
	}
}

// crashPlan makes every CPU_SKLearn invocation crash. CPU_SKLearn is the
// executor's fallback engine, so nothing absorbs the fault: it reaches the
// endpoint.
const crashPlan = "CPU_SKLearn:invoke:crash"

// TestScoreDeviceFaultIsInternal: a shard-local device failure is the
// shard's trouble, not the query's — /score answers 500 internal (which the
// router reroutes), not 400 bad_request (which fails the query everywhere).
func TestScoreDeviceFaultIsInternal(t *testing.T) {
	ts := startFaultyShardServer(t, "shard-0", crashPlan)
	code, res := postScore(t, ts.URL, router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_SKLearn"})
	if code != http.StatusInternalServerError || res.Code != router.CodeInternal || res.Error == "" {
		t.Fatalf("device crash = %d code %q (%q), want 500 %q", code, res.Code, res.Error, router.CodeInternal)
	}
	// A healthy engine on the same shard still answers.
	if code, res := postScore(t, ts.URL, router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX"}); code != http.StatusOK {
		t.Fatalf("healthy engine = %d (%q)", code, res.Error)
	}
}

// TestRouterReroutesAroundFaultyShard: with one of two replicas crashing on
// every invocation, the router moves that replica's partition to the healthy
// one, returns the answer a healthy tier returns, and holds the failure
// against the sick shard's health.
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

	r := tier(crashPlan)
	got, err := r.Query(ctx, sql, router.QueryOptions{})
	if err != nil {
		t.Fatalf("one sick replica failed the whole query: %v", err)
	}
	if got.Partial || got.Reroutes != 1 || !reflect.DeepEqual(got.Predictions, want.Predictions) {
		t.Fatalf("partial %v, %d reroutes, %d predictions (healthy tier: %d), want a bit-identical answer over 1 reroute",
			got.Partial, got.Reroutes, len(got.Predictions), len(want.Predictions))
	}
	if st := r.Health().State(0); st == router.ShardHealthy {
		t.Fatalf("the faulty shard's health never heard about the failure: still %v", st)
	}
	if st := r.Health().State(1); st != router.ShardHealthy {
		t.Fatalf("the healthy shard is %v", st)
	}
}
