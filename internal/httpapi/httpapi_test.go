package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"accelscore/internal/httpapi"
	"accelscore/internal/obs"
)

func fetch(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestInstrumentLabelsByMatchedPattern: status capture and the route label
// come from what the mux did, not from a hand-kept list — an unmatched path
// and a path only a root catch-all claims are both "other".
func TestInstrumentLabelsByMatchedPattern(t *testing.T) {
	o := obs.NewObserver()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
		}
	})
	mux.HandleFunc("/thing/", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusTeapot, map[string]string{"id": strings.TrimPrefix(r.URL.Path, "/thing/")})
	})
	httpapi.MountOps(mux, o)
	ts := httptest.NewServer(httpapi.Instrument(o.Metrics(), mux))
	defer ts.Close()

	resp, body := fetch(t, ts.URL+"/thing/42")
	var doc map[string]string
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc["id"] != "42" ||
		resp.StatusCode != http.StatusTeapot || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("WriteJSON answered %d %q %q (%v)", resp.StatusCode, resp.Header.Get("Content-Type"), body, err)
	}
	for _, path := range []string{"/", "/thing/43", "/nope", "/nope/deeper"} {
		fetch(t, ts.URL+path)
	}
	_, scrape := fetch(t, ts.URL+"/metrics")
	for _, series := range []string{
		httpapi.MetricHTTPRequestsTotal + `{code="418",route="/thing/"} 2`,
		httpapi.MetricHTTPRequestsTotal + `{code="200",route="/"} 1`,
		httpapi.MetricHTTPRequestsTotal + `{code="404",route="other"} 2`,
		httpapi.MetricHTTPRequestSeconds + `_count{route="/thing/"} 2`,
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("/metrics misses %q:\n%s", series, scrape)
		}
	}
	if probs := obs.LintPrometheus(strings.NewReader(scrape)); len(probs) != 0 {
		t.Errorf("scrape fails lint: %v", probs)
	}

	// Without a registry the middleware still serves and logs.
	bare := httptest.NewServer(httpapi.Instrument(nil, mux))
	defer bare.Close()
	if resp, _ := fetch(t, bare.URL+"/thing/1"); resp.StatusCode != http.StatusTeapot {
		t.Fatalf("unmetered mux = %d", resp.StatusCode)
	}
}

// TestDebugQueriesRendersEveryLayer: the one /debug/queries renderer prints
// what either binary records — attrs, wall spans with their lane, the error.
func TestDebugQueriesRendersEveryLayer(t *testing.T) {
	o := obs.NewObserver()
	mux := http.NewServeMux()
	httpapi.MountOps(mux, o)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if _, body := fetch(t, ts.URL+"/debug/queries"); !strings.HasPrefix(body, "0 recent queries") {
		t.Fatalf("empty ring renders as:\n%s", body)
	}
	tr := o.Tracer.Start("router m")
	tr.SetAttr("shards", "2")
	tr.SetAttr("error", "shard 1 on fire")
	tr.StartSpanOn("shard 1", "sub-query 1/2")()
	tr.StartSpan("merge")()
	tr.Finish()
	_, body := fetch(t, ts.URL+"/debug/queries")
	for _, want := range []string{
		"1 recent queries", tr.ID() + "  router m", "error: shard 1 on fire", "shards",
		"wall  sub-query 1/2", "[shard 1]", "wall  merge", "download: /debug/trace/" + tr.ID(),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries misses %q:\n%s", want, body)
		}
	}
}

func TestGitDescribeIsMemoized(t *testing.T) {
	first := httpapi.GitDescribe()
	if first == "" || first != httpapi.GitDescribe() {
		t.Fatalf("GitDescribe = %q then %q", first, httpapi.GitDescribe())
	}
}

// TestServeDrainsInOrderOnSignal: SIGTERM stops the listener, then runs the
// drains in the order given, each under the shutdown budget, and Serve
// returns nil; a port already taken is reported, not drained.
func TestServeDrainsInOrderOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var order []string
	drain := func(name string, err error) func(context.Context) error {
		return func(ctx context.Context) error {
			if _, ok := ctx.Deadline(); !ok {
				t.Errorf("drain %s runs without the shutdown budget", name)
			}
			order = append(order, name)
			return err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "pong") })

	if err := httpapi.Serve(addr, mux, time.Second, drain("never", nil)); err == nil || len(order) != 0 {
		t.Fatalf("Serve on a taken port = %v, drains run: %v", err, order)
	}
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- httpapi.Serve(addr, mux, time.Second, drain("executor", errors.New("stragglers")), drain("store", nil))
	}()
	// Serve installs its signal handler before it listens, so once the port
	// answers the signal cannot reach the default (fatal) disposition.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/ping")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Serve never listened: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	if strings.Join(order, ",") != "executor,store" {
		t.Fatalf("drains ran as %v, want executor then store (a failed drain does not stop the next)", order)
	}
	if _, err := http.Get("http://" + addr + "/ping"); err == nil {
		t.Fatal("listener still answers after shutdown")
	}
}
