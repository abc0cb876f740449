package router_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// servedShard reaches b the way the tier does: router.ShardHandler on a
// loopback listener, an HTTPShard pointed at it. wrap (may be nil) sits
// between the wire and the handler, so a test can pin or damage the
// representation on the wire.
func servedShard(t testing.TB, b router.Backend, wrap func(http.Handler) http.Handler) *router.HTTPShard {
	t.Helper()
	h := router.ShardHandler(b)
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	shard, err := router.NewHTTPShard(b.ID(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// fakeShard is servedShard over an in-process replica.
func fakeShard(t *testing.T, name string) *router.HTTPShard {
	t.Helper()
	return servedShard(t, &router.Local{Name: name, Pipe: newShardPipeline(t, 200)}, nil)
}

// rewriteBody lets edit change the reply's body on its way out; the stated
// Content-Length follows the edit.
func rewriteBody(edit func([]byte) []byte) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := edit(rec.Body.Bytes())
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// asJSON turns the handler's frame into the JSON reply a shard that
// predates the frame would send.
func asJSON(t *testing.T) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			res, err := router.DecodeFrame(rec.Body.Bytes())
			if err != nil {
				t.Errorf("the handler's own reply does not decode: %v", err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			json.NewEncoder(w).Encode(res)
		})
	}
}

// TestHTTPShardDecodesByContentType: the frame is the one reply encoding.
// A replica's frame decodes to its stripe; a JSON reply (an older shard's)
// or a damaged frame fails the sub-query with an error that names the shard
// and that the dispatcher may reroute — never a Result.
func TestHTTPShardDecodesByContentType(t *testing.T) {
	ctx := context.Background()
	req := router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2"}
	viaFrame, err := fakeShard(t, "new").Score(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if stripe := (pipeline.Partition{Index: 1, Count: 2}).Rows(200); viaFrame.ScoredRows != nil || len(viaFrame.Predictions) != stripe {
		t.Fatalf("partition 1/2 came back with %d ordinals, %d predictions; its stripe holds %d rows and lists none",
			len(viaFrame.ScoredRows), len(viaFrame.Predictions), stripe)
	}

	for name, wrap := range map[string]func(http.Handler) http.Handler{
		"JSON reply":  asJSON(t),
		"flipped CRC": rewriteBody(func(f []byte) []byte { f[len(f)-1] ^= 1; return f }),
		"truncated":   rewriteBody(func(f []byte) []byte { return f[:len(f)/2] }),
		"length over the cap": rewriteBody(func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f, router.MaxFrameBytes+1)
			return f
		}),
		"bytes after the frame": rewriteBody(func(f []byte) []byte { return append(f, 0) }),
	} {
		b := &router.Local{Name: "bad", Pipe: newShardPipeline(t, 200)}
		res, err := servedShard(t, b, wrap).Score(ctx, req)
		if err == nil {
			t.Fatalf("%s: decoded to %+v", name, res)
		}
		if res != nil || router.IsNoReroute(err) || !strings.Contains(err.Error(), "shard bad") {
			t.Fatalf("%s: %+v, error %q; want no Result and a rerouteable error naming the shard", name, res, err)
		}
	}
}

// TestRouterWireTelemetry: over two shards behind the real wire the gather
// is bit-identical to a single node, the wire metrics count every reply's
// bytes and decode, and the trace shows where the gather's time went: a
// "wire decode" span on each shard's lane and one "merge" span.
func TestRouterWireTelemetry(t *testing.T) {
	o := obs.NewObserver()
	r, err := router.New(router.Config{
		Backends: []router.Backend{fakeShard(t, "shard-0"), fakeShard(t, "shard-1")},
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := newShardPipeline(t, 200).ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Predictions, want.Predictions) || got.ScoredRows != nil {
		t.Fatalf("gather over the wire differs from single-node: %d vs %d predictions", len(got.Predictions), len(want.Predictions))
	}

	var page bytes.Buffer
	if err := o.Metrics().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"\n" + obs.MetricRouterWireBytesTotal + " ",
		obs.MetricRouterWireDecode + "_count 2",
	} {
		if !strings.Contains(page.String(), series) {
			t.Errorf("/metrics misses %q", series)
		}
	}
	if probs := obs.LintPrometheus(&page); len(probs) > 0 {
		t.Errorf("router exposition fails the linter: %v", probs)
	}

	tr, ok := o.Tracer.Get(got.TraceID)
	if !ok {
		t.Fatalf("trace %q not retained", got.TraceID)
	}
	lanes := map[string]string{}
	for _, span := range tr.Snapshot().WallSpans {
		if span.Name == "wire decode" || span.Name == "merge" {
			lanes[span.Name] += span.Track + ";"
		}
	}
	if d := lanes["wire decode"]; !(d == "shard 0;shard 1;" || d == "shard 1;shard 0;") || lanes["merge"] != ";" {
		t.Fatalf("gather spans on lanes %q", lanes)
	}
}
