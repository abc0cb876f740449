package router_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"accelscore/internal/backend"
	"accelscore/internal/conformance"
	"accelscore/internal/db"
	"accelscore/internal/hw"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// scriptedBackend answers every Score from a script and counts the calls.
type scriptedBackend struct {
	router.Backend
	res   *router.Result
	err   error
	calls atomic.Int32
}

func (b *scriptedBackend) ID() string { return "scripted" }

func (b *scriptedBackend) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	b.calls.Add(1)
	if b.res == nil && b.err == nil {
		return b.Backend.Score(ctx, req)
	}
	return b.res, b.err
}

// failureClass is what a caller can tell about a failed sub-query: whether
// it is query-level, the wire code a shard gave it, or the context error it
// was. HTTPShard must preserve exactly this much of a Backend's error.
func failureClass(err error) string {
	var se *router.ShardError
	switch {
	case err == nil:
		return "ok"
	case router.IsNoReroute(err):
		return router.CodeBadRequest
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, context.DeadlineExceeded):
		return router.CodeTimeout
	case errors.Is(err, context.Canceled):
		return router.CodeCanceled
	default:
		return "transport"
	}
}

// cutMidBody states the whole reply's length and then hangs up half way
// through it.
func cutMidBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.Header().Set("Content-Length", fmt.Sprint(rec.Body.Len()))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
	})
}

func compose(wraps ...func(http.Handler) http.Handler) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		for _, wrap := range wraps {
			h = wrap(h)
		}
		return h
	}
}

// wireFormats are the two /score representations, selected the way a real
// caller selects them: by what Accept header reaches the shard.
var wireFormats = map[string]func(http.Handler) http.Handler{
	"frame": func(h http.Handler) http.Handler { return h },
	"json":  jsonOnly,
}

// TestShardProtocolRoundTrips is the protocol's defining property:
// NewHTTPShard(url of ShardHandler(b)) behaves as b. For every outcome a
// Backend can have — each result shape, each failure class — the HTTPShard
// returns a deep-equal Result or an error of the same class, under both
// representations.
func TestShardProtocolRoundTrips(t *testing.T) {
	spans := []router.WireSpan{{Name: "data transfer", Kind: 1, NS: 1200}, {Name: "model scoring", Kind: 2, NS: 88000}}
	outcomes := map[string]*scriptedBackend{
		"dense predictions": {res: &router.Result{
			ShardID: "scripted", Backend: "CPU_ONNX", Predictions: []int{0, 2, 1, 1, 0}, RowsScanned: 5, RowsScored: 5,
			CacheHit: true, TraceID: "q-000007", Timeline: spans, ScoringDetail: spans[1:],
		}},
		"selection and ordinals": {res: &router.Result{
			ShardID: "scripted", Backend: "FPGA", Predictions: []int{1, 300, 0}, ScoredRows: []int{0, 4, 9},
			RowsScanned: 10, RowsScored: 3, Fused: true, Retries: 2, FallbackFrom: "GPU_RAPIDS", FallbackReason: "breaker open",
		}},
		"fused counts": {res: &router.Result{
			ShardID: "scripted", Backend: "CPU_SKLearn", ClassCounts: []int64{3, 0, 1 << 40}, RowsScanned: 12, RowsScored: 9, Fused: true,
		}},
		"empty result": {res: &router.Result{ShardID: "scripted", Backend: "CPU_ONNX", RowsScanned: 40, Fused: true}},
		"query-level":  {err: router.NoReroute(errors.New("pipeline: model \"nope\": model not found"))},
		"deadline":     {err: fmt.Errorf("exec: waiting for a worker: %w", context.DeadlineExceeded)},
		"cancel":       {err: context.Canceled},
		"unclassified": {err: errors.New("shard fell over")},
	}
	codes := []string{router.CodeBadRequest, router.CodeRejected, router.CodeTimeout, router.CodeCanceled, router.CodeInternal}
	for _, code := range codes {
		outcomes["shard error "+code] = &scriptedBackend{err: &router.ShardError{Shard: "scripted", Code: code, Msg: "shard says " + code}}
	}
	// What the wire may not preserve: an error no layer classed arrives as
	// the protocol's catch-all.
	wantClass := func(err error) string {
		if c := failureClass(err); c != "transport" {
			return c
		}
		return router.CodeInternal
	}

	seen := map[string]bool{}
	for format, wrap := range wireFormats {
		for name, b := range outcomes {
			want, wantErr := b.res, b.err
			got, err := servedShard(t, b, wrap).Score(context.Background(), router.Request{Model: "m", Data: "t"})
			if failureClass(err) != wantClass(wantErr) {
				t.Errorf("%s over %s: error %v (class %s), backend's was %v (class %s)",
					name, format, err, failureClass(err), wantErr, wantClass(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s:\n got %+v\nwant %+v", name, format, got, want)
			}
			if router.IsNoReroute(err) != (wantClass(wantErr) == router.CodeBadRequest) {
				t.Errorf("%s over %s: NoReroute = %v for class %s", name, format, router.IsNoReroute(err), wantClass(wantErr))
			}
			var se *router.ShardError
			if errors.As(err, &se) && (se.Shard != "scripted" || se.Msg == "" || se.Msg != innermost(wantErr)) {
				t.Errorf("%s over %s: ShardError %+v does not carry the backend's message %q", name, format, se, innermost(wantErr))
			}
			seen[failureClass(err)] = true
		}
		// A reply cut mid-body is nobody's answer: no Result, and an error
		// the dispatcher may reroute.
		cut := outcomes["dense predictions"]
		got, err := servedShard(t, cut, compose(cutMidBody, wrap)).Score(context.Background(), router.Request{Model: "m", Data: "t"})
		if got != nil || failureClass(err) != "transport" {
			t.Errorf("cut %s reply: %+v, %v (class %s), want a rerouteable transport error", format, got, err, failureClass(err))
		}
	}
	for _, class := range append(codes, "ok") {
		if !seen[class] {
			t.Errorf("no outcome exercised class %q", class)
		}
	}
}

// innermost is the message a ShardError should carry for err: the bare
// message, without the "router: shard <id>:" prefix a ShardError adds.
func innermost(err error) string {
	var se *router.ShardError
	if errors.As(err, &se) {
		return se.Msg
	}
	return err.Error()
}

// TestShardProtocolOverConformanceCases runs the same property over real
// sub-queries: for every conformance scale-out case, an in-process replica
// and the same replica behind ShardHandler + HTTPShard return deep-equal
// Results for a scan, a hash partition, a pushed-down filter and the fused
// aggregate, under both representations.
func TestShardProtocolOverConformanceCases(t *testing.T) {
	cases, err := conformance.Cases(true)
	if err != nil {
		t.Fatal(err)
	}
	runner := conformance.NewRunner()
	reg := backend.NewRegistry()
	for _, eng := range runner.Engines {
		if err := reg.Register(eng); err != nil {
			t.Fatal(err)
		}
	}
	compared := 0
	for _, c := range cases {
		database := db.New()
		tbl, err := db.TableFromDataset("scoring_input", c.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := database.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := database.StoreModelBlob("m", c.Blob); err != nil {
			t.Fatal(err)
		}
		local := &router.Local{Name: "shard-0", Pipe: &pipeline.Pipeline{
			DB: database, Runtime: hw.DefaultRuntime(), Registry: reg, Cache: pipeline.NewModelCache(4),
		}}
		base := router.Request{Model: "m", Data: "scoring_input", Backend: "CPU_ONNX"}
		filtered, grouped, part := base, base, base
		filtered.Where = fmt.Sprintf("%s < %g", c.Data.FeatureNames[0], c.Data.X[0])
		filtered.Partition = "1/3"
		grouped.Agg = "group_count"
		grouped.Partition = "0/3"
		part.Partition = "2/3"
		for format, wrap := range wireFormats {
			remote := servedShard(t, local, wrap)
			for _, req := range []router.Request{base, part, filtered, grouped, {Model: "nope", Data: "scoring_input"}} {
				// The first run of a shape pays the model and snapshot misses,
				// which show in its simulated timeline; compare warm runs.
				local.Score(context.Background(), req)
				want, wantErr := local.Score(context.Background(), req)
				got, err := remote.Score(context.Background(), req)
				if failureClass(err) != failureClass(wantErr) {
					t.Fatalf("%s %+v over %s: error %v, in-process %v", c.Name, req, format, err, wantErr)
				}
				if err != nil {
					continue
				}
				got.TraceID, want.TraceID = "", "" // one per execution
				// The wire does not tell an empty list from an absent one.
				if len(want.Predictions) == 0 {
					want.Predictions = nil
				}
				if len(want.ScoredRows) == 0 {
					want.ScoredRows = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v over %s:\n got %+v\nwant %+v", c.Name, req, format, got, want)
				}
				compared++
			}
		}
	}
	if compared < 8*len(cases) {
		t.Fatalf("only %d of %d sub-queries were compared", compared, 8*len(cases))
	}
}
