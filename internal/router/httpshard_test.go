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
	"accelscore/internal/router"
)

// fakeShard serves /score over an in-process replica, handing each result to
// reply so a test chooses (or corrupts) the representation on the wire.
func fakeShard(t *testing.T, name string, reply func(w http.ResponseWriter, r *http.Request, res *router.Result)) *router.HTTPShard {
	t.Helper()
	local := &router.Local{Name: name, Pipe: newShardPipeline(t, 200)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req router.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		res, err := local.Score(r.Context(), req)
		if err != nil {
			t.Error(err)
			res = &router.Result{Error: err.Error(), Code: router.CodeInternal}
		}
		reply(w, r, res)
	}))
	t.Cleanup(ts.Close)
	shard, err := router.NewHTTPShard(name, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

func replyJSON(w http.ResponseWriter, _ *http.Request, res *router.Result) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// replyFrame answers as cmd/serve does; corrupt (may be nil) edits the frame
// on its way out.
func replyFrame(corrupt func([]byte) []byte) func(http.ResponseWriter, *http.Request, *router.Result) {
	return func(w http.ResponseWriter, r *http.Request, res *router.Result) {
		if r.Header.Get("Accept") != router.FrameContentType {
			http.Error(w, "HTTPShard did not ask for the frame", http.StatusNotAcceptable)
			return
		}
		frame, err := router.EncodeFrame(res)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if corrupt != nil {
			frame = corrupt(frame)
		}
		w.Header().Set("Content-Type", router.FrameContentType)
		w.Header().Set("Content-Length", fmt.Sprint(len(frame)))
		w.Write(frame)
	}
}

// TestHTTPShardDecodesByContentType: the router picks its decoder from the
// reply, so a shard that only speaks JSON (an older build) and one that
// answers with frames return the same Result, and a damaged frame fails the
// sub-query with an error the dispatcher may reroute — never a Result.
func TestHTTPShardDecodesByContentType(t *testing.T) {
	ctx := context.Background()
	req := router.Request{Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX", Partition: "1/2"}
	viaJSON, err := fakeShard(t, "old", replyJSON).Score(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	viaFrame, err := fakeShard(t, "new", replyFrame(nil)).Score(ctx, req)
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
		res, err := fakeShard(t, "bad", replyFrame(corrupt)).Score(ctx, req)
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
		Backends: []router.Backend{fakeShard(t, "shard-0", replyFrame(nil)), fakeShard(t, "shard-1", replyJSON)},
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
