package router_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"accelscore/internal/obs"
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
func fakeShard(t *testing.T, name string, wrap func(http.Handler) http.Handler) *router.HTTPShard {
	t.Helper()
	return servedShard(t, &router.Local{Name: name, Pipe: newShardPipeline(t, 200)}, wrap)
}

// jsonOnly makes a shard that predates the frame: it never sees the Accept
// header, so it answers JSON.
func jsonOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		next.ServeHTTP(w, r)
	})
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

// TestHTTPShardDecodesByContentType: the router picks its decoder from the
// reply, so a shard that only speaks JSON (an older build) and one that
// answers with frames return the same Result, and a damaged frame fails the
// sub-query with an error the dispatcher may reroute — never a Result.
func TestHTTPShardDecodesByContentType(t *testing.T) {
	ctx := context.Background()
	req := router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2"}
	viaJSON, err := fakeShard(t, "old", jsonOnly).Score(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	viaFrame, err := fakeShard(t, "new", nil).Score(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaFrame.ScoredRows) == 0 || len(viaFrame.ScoredRows) != len(viaFrame.Predictions) {
		t.Fatalf("partition 1/2 came back with %d ordinals, %d predictions", len(viaFrame.ScoredRows), len(viaFrame.Predictions))
	}
	viaJSON.ShardID, viaFrame.ShardID = "", ""
	if !reflect.DeepEqual(viaJSON, viaFrame) {
		t.Fatalf("the encodings disagree:\nframe %+v\n json %+v", viaFrame, viaJSON)
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped CRC": func(f []byte) []byte { f[len(f)-1] ^= 1; return f },
		"truncated":   func(f []byte) []byte { return f[:len(f)/2] },
		"length over the cap": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f, router.MaxFrameBytes+1)
			return f
		},
		"bytes after the frame": func(f []byte) []byte { return append(f, 0) },
	} {
		res, err := fakeShard(t, "bad", rewriteBody(corrupt)).Score(ctx, req)
		if err == nil {
			t.Fatalf("%s: decoded to %+v", name, res)
		}
		if router.IsNoReroute(err) || !strings.Contains(err.Error(), "shard bad") {
			t.Fatalf("%s: error %q should name the shard and stay rerouteable", name, err)
		}
	}
}

// TestRouterOverMixedWire: one shard answers with frames, the other with
// JSON; the gather is bit-identical to a single node either way, the wire
// metrics tell the two apart, and the trace shows where the gather's time
// went: a "wire decode" span on each shard's lane and one "merge" span.
func TestRouterOverMixedWire(t *testing.T) {
	o := obs.NewObserver()
	r, err := router.New(router.Config{
		Backends: []router.Backend{fakeShard(t, "shard-0", nil), fakeShard(t, "shard-1", jsonOnly)},
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
	if !reflect.DeepEqual(got.Predictions, want.Predictions) || got.ScoredRows != nil || got.Partial {
		t.Fatalf("gather over a mixed wire differs from single-node: %d vs %d predictions", len(got.Predictions), len(want.Predictions))
	}

	var page bytes.Buffer
	if err := o.Metrics().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		obs.MetricRouterWireBytesTotal + `{format="frame"} `,
		obs.MetricRouterWireBytesTotal + `{format="json"} `,
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
