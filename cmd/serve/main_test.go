package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/experiments"
	"accelscore/internal/httpapi"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/storage"
)

// startTestServer builds the full routed handler (logging middleware
// included) over a small demo table so tests stay fast. Coalescing is on so
// the concurrent tests exercise the real batched hot path.
func startTestServer(t *testing.T) *httptest.Server {
	ts, _ := startTestServerFaults(t, "")
	return ts
}

// startTestServerFaults also arms a fault-injection plan on the demo
// pipeline and returns the server state for executor assertions.
func startTestServerFaults(t *testing.T, faultSpec string) (*httptest.Server, *server) {
	t.Helper()
	s, handler, err := newServer(50, exec.Config{}, faultSpec, 7, nil,
		obsConfig{SLOSpec: "default=30s"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// startDurableServer builds the handler over a durable store rooted at dir,
// so tests can kill and reopen the same data directory.
func startDurableServer(t *testing.T, dir string) (*httptest.Server, *server) {
	t.Helper()
	s, handler, err := newServer(50, exec.Config{},
		"", 7, &storage.Config{Dir: dir, Sync: storage.SyncAlways, CompactBytes: -1}, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func get(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

// TestMetricsAfterQueries is the acceptance check at the HTTP layer: after
// scoring queries run, GET /metrics returns Prometheus text containing query
// counters, per-stage latency histograms, backend selection counters and
// cache hit/miss counters.
func TestMetricsAfterQueries(t *testing.T) {
	ts := startTestServer(t)
	for i := 0; i < 2; i++ {
		if code, body := get(t, ts.URL+"/query"); code != http.StatusOK {
			t.Fatalf("/query = %d: %s", code, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, needle := range []string{
		pipeline.MetricQueriesTotal + `{status="ok"} 2`,
		pipeline.MetricStageSimSeconds + `_count{stage="model scoring"} 2`,
		pipeline.MetricBackendSelectedTotal + `{backend="CPU_SKLearn",source="param"} 2`,
		pipeline.MetricModelCacheEventsTotal + `{event="miss"} 1`,
		pipeline.MetricModelCacheEventsTotal + `{event="hit"} 1`,
		httpapi.MetricHTTPRequestsTotal + `{code="200",route="/query"} 2`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
}

// TestDebugQueriesAndTraceDownload drives a query, finds it on
// /debug/queries and downloads its Chrome trace.
func TestDebugQueriesAndTraceDownload(t *testing.T) {
	ts := startTestServer(t)
	if code, body := get(t, ts.URL+"/query"); code != http.StatusOK {
		t.Fatalf("/query = %d: %s", code, body)
	}

	if code, body := get(t, ts.URL+"/query"); code != http.StatusOK {
		t.Fatalf("/query = %d: %s", code, body)
	}

	code, body := get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries = %d", code)
	}
	first := strings.Index(body, "q-000001")
	second := strings.Index(body, "q-000002")
	if first < 0 || second < 0 {
		t.Fatalf("/debug/queries does not list both queries:\n%s", body)
	}
	if second > first {
		t.Error("/debug/queries is not newest-first")
	}

	resp, err := http.Get(ts.URL + "/debug/trace/q-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace = %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "q-000001.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	if code, _ := get(t, ts.URL+"/debug/trace/q-999999"); code != http.StatusNotFound {
		t.Errorf("missing trace = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/debug/trace/"); code != http.StatusBadRequest {
		t.Errorf("empty trace id = %d, want 400", code)
	}
}

// TestIndexAndHotPath smoke-tests the dashboard pages that exercise the
// shared suite and the per-request demo.
func TestIndexAndHotPath(t *testing.T) {
	ts := startTestServer(t)
	if code, body := get(t, ts.URL+"/"); code != http.StatusOK || !strings.Contains(body, "accelscore") {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	code, body := get(t, ts.URL+"/fig/hotpath")
	if code != http.StatusOK {
		t.Fatalf("/fig/hotpath = %d", code)
	}
	for _, needle := range []string{"cold (cache miss)", "warm (cache hit)"} {
		if !strings.Contains(body, needle) {
			t.Errorf("/fig/hotpath missing %q", needle)
		}
	}
	if code, _ := get(t, ts.URL+"/fig/nope"); code != http.StatusNotFound {
		t.Errorf("unknown figure = %d, want 404", code)
	}
}

// TestConcurrentQueries hammers the shared demo pipeline from many
// goroutines; run under -race this pins the satellite fix for the previously
// unsynchronized shared state.
func TestConcurrentQueries(t *testing.T) {
	ts := startTestServer(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	traces := make(map[string]bool)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(ts.URL + "/query")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/query = %d", resp.StatusCode)
					continue
				}
				// Every response carries its own trace.
				_, after, ok := strings.Cut(string(body), "trace            ")
				if !ok {
					t.Error("response missing trace line")
					continue
				}
				id, _, _ := strings.Cut(after, " ")
				mu.Lock()
				traces[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(traces) != 24 {
		t.Errorf("got %d distinct trace IDs, want 24", len(traces))
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, pipeline.MetricQueriesTotal+`{status="ok"} 24`) {
		t.Error("expected 24 ok queries in /metrics")
	}
}

// TestQueryTimeoutMapsTo504: a ?timeout= shorter than an injected device
// hang surfaces as 504 Gateway Timeout, and the deadline counter appears on
// /metrics. A malformed timeout is a 400.
func TestQueryTimeoutMapsTo504(t *testing.T) {
	ts, _ := startTestServerFaults(t, "CPU_SKLearn:compute:hang=2s")
	if code, body := get(t, ts.URL+"/query?timeout=50ms"); code != http.StatusGatewayTimeout {
		t.Fatalf("/query?timeout=50ms = %d, want 504: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/query?timeout=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad timeout = %d, want 400", code)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, needle := range []string{
		exec.MetricDeadlineExceededTotal + " 1",
		httpapi.MetricHTTPRequestsTotal + `{code="504",route="/query"} 1`,
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
}

// TestClientDisconnectMapsTo499: the handler threads r.Context() into the
// executor, so a client that gives up cancels its queued query and the
// server records nginx's 499 with a distinct cancellation counter.
func TestClientDisconnectMapsTo499(t *testing.T) {
	ts, _ := startTestServerFaults(t, "CPU_SKLearn:compute:hang=5s")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request succeeded with status %d, want client-side cancellation", resp.StatusCode)
	}
	// The handler finishes asynchronously after the disconnect; poll the
	// metrics until the 499 lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, ts.URL+"/metrics")
		if strings.Contains(body, httpapi.MetricHTTPRequestsTotal+`{code="499",route="/query"} 1`) &&
			strings.Contains(body, exec.MetricCanceledTotal+" 1") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("499/cancellation never counted:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postSQL(t *testing.T, url, sql string) (int, sqlResponse) {
	t.Helper()
	resp, err := http.Post(url+"/sql", "text/plain", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sqlResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding /sql response: %v", err)
	}
	return resp.StatusCode, sr
}

// TestSQLEndpoint exercises /sql over the in-memory server: SELECT returns
// rows as JSON, DML acknowledges, scoring statements and parse errors are
// rejected with 400.
func TestSQLEndpoint(t *testing.T) {
	ts := startTestServer(t)
	if code, sr := postSQL(t, ts.URL, "SELECT sepal_length, label FROM iris WHERE label = 0"); code != http.StatusOK {
		t.Fatalf("/sql SELECT = %d: %+v", code, sr)
	} else {
		if len(sr.Columns) != 2 || sr.Columns[0] != "sepal_length" {
			t.Fatalf("columns = %v", sr.Columns)
		}
		if len(sr.Rows) == 0 {
			t.Fatal("SELECT returned no rows")
		}
	}
	if code, sr := postSQL(t, ts.URL, "INSERT INTO iris VALUES (1.0, 2.0, 3.0, 4.0, 1)"); code != http.StatusOK || !sr.OK {
		t.Fatalf("/sql INSERT = %d: %+v", code, sr)
	}
	if code, sr := postSQL(t, ts.URL, experiments.DemoQuery); code != http.StatusBadRequest ||
		!strings.Contains(sr.Error, "/query") {
		t.Fatalf("EXEC on /sql = %d: %+v", code, sr)
	}
	if code, _ := postSQL(t, ts.URL, "SELEKT nope"); code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/sql"); code != http.StatusBadRequest {
		t.Fatalf("empty statement = %d, want 400", code)
	}
}

// TestSQLRefusesOverLimitBody: a body over the limit is refused with 413 and
// nothing of it runs — not even the whole tuples its first MiB happens to end
// on.
func TestSQLRefusesOverLimitBody(t *testing.T) {
	ts, s := startTestServerFaults(t, "")
	tbl, err := s.demo.Pipe.DB.Table("iris")
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.NumRows()
	const head, tuple = "INSERT INTO iris VALUES ", "(1.0, 2.0, 3.0, 4.0, 1)"
	fill := httpapi.MaxStatementBytes - len(head) - len(tuple)
	first := "(1.0" + strings.Repeat("0", fill%len(", "+tuple)) + tuple[4:]
	sql := head + first + strings.Repeat(", "+tuple, fill/len(", "+tuple))
	if len(sql) != httpapi.MaxStatementBytes || !strings.HasSuffix(sql, ")") {
		t.Fatalf("the first %d bytes must be a whole INSERT, got %d bytes", httpapi.MaxStatementBytes, len(sql))
	}
	code, sr := postSQL(t, ts.URL, sql+strings.Repeat(", "+tuple, 2))
	if code != http.StatusRequestEntityTooLarge || sr.OK {
		t.Fatalf("over-limit INSERT = %d: %+v, want 413", code, sr)
	}
	if after := tbl.NumRows(); after != before {
		t.Fatalf("iris holds %d rows after the refused INSERT, %d before", after, before)
	}
}

// TestQueryReportsAttribution: the /query page carries the measured
// per-stage resource breakdown and the SLO verdict, the trace download
// attaches the costs as span args, and /debug/queries prints them on the
// measured spans' lines beside the transfer legs' bytes.
func TestQueryReportsAttribution(t *testing.T) {
	ts := startTestServer(t)
	code, body := get(t, ts.URL+"/query")
	if code != http.StatusOK {
		t.Fatalf("/query = %d: %s", code, body)
	}
	for _, needle := range []string{
		"measured per-stage attribution",
		"model scoring",
		"slo class        default: good",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("/query missing %q:\n%s", needle, body)
		}
	}
	// The trace export carries the costs as args on the wall spans.
	code, trace := get(t, ts.URL+"/debug/trace/q-000001")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d", code)
	}
	if !strings.Contains(trace, `"alloc_bytes"`) || !strings.Contains(trace, `"cpu_us"`) {
		t.Errorf("trace export missing attribution args:\n%s", trace)
	}
	// And /debug/queries prints the costs and the bytes moved.
	code, dbg := get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK || !regexp.MustCompile(`wall  model scoring .* cpu=`).MatchString(dbg) ||
		!strings.Contains(dbg, "transfer_in_bytes") || !strings.Contains(dbg, "transfer_out_bytes") {
		t.Errorf("/debug/queries missing the measured costs or the bytes moved (code %d):\n%s", code, dbg)
	}
}

// TestMetricsExemplarResolvesToTrace is the tentpole acceptance loop: scrape
// /metrics, find an exemplar trace ID on the wall-latency histogram, then
// download exactly that trace.
func TestMetricsExemplarResolvesToTrace(t *testing.T) {
	ts := startTestServer(t)
	if code, body := get(t, ts.URL+"/query"); code != http.StatusOK {
		t.Fatalf("/query = %d: %s", code, body)
	}
	_, metricsText := get(t, ts.URL+"/metrics")
	var traceID string
	for _, line := range strings.Split(metricsText, "\n") {
		if !strings.HasPrefix(line, pipeline.MetricQueryWallSeconds+"_bucket") {
			continue
		}
		_, ex, ok := strings.Cut(line, `# {trace_id="`)
		if !ok {
			continue
		}
		traceID, _, _ = strings.Cut(ex, `"`)
		break
	}
	if traceID == "" {
		t.Fatalf("no exemplar on %s buckets:\n%s", pipeline.MetricQueryWallSeconds, metricsText)
	}
	code, trace := get(t, ts.URL+"/debug/trace/"+traceID)
	if code != http.StatusOK {
		t.Fatalf("exemplar trace %s = %d", traceID, code)
	}
	if !strings.Contains(trace, traceID) {
		t.Errorf("downloaded trace does not mention its own ID %s", traceID)
	}
}

// TestMetricsExpositionLints runs the repo's strict exposition lint over a
// live scrape after real traffic — the satellite (c) acceptance at the HTTP
// layer.
func TestMetricsExpositionLints(t *testing.T) {
	ts := startTestServer(t)
	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/query")
	}
	get(t, ts.URL+"/debug/queries")
	_, text := get(t, ts.URL+"/metrics")
	if probs := obs.LintPrometheus(strings.NewReader(text)); len(probs) != 0 {
		msgs := make([]string, len(probs))
		for i, p := range probs {
			msgs[i] = p.String()
		}
		t.Errorf("live /metrics scrape fails lint:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestPprofMounted: the pprof index and a short CPU profile answer under the
// logged mux.
func TestPprofMounted(t *testing.T) {
	ts := startTestServer(t)
	code, body := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%s", code, body)
	}
	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Fatalf("/debug/pprof/profile = %d, %d bytes", resp.StatusCode, len(raw))
	}
	// The middleware counted it under the bounded route label.
	_, metricsText := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `route="/debug/pprof/"`) {
		t.Error("pprof requests not counted under the bounded route label")
	}
}

// TestRuntimeGaugesOnMetrics: a server publishes runtime health gauges on
// /metrics from the moment it is built — the collector's first sample is
// taken at start, not a period later.
func TestRuntimeGaugesOnMetrics(t *testing.T) {
	s, handler, err := newServer(50, exec.Config{}, "", 7, nil, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	_, text := get(t, ts.URL+"/metrics")
	for _, needle := range []string{
		obs.MetricRuntimeGoroutines,
		obs.MetricRuntimeHeapAllocBytes,
		obs.MetricRuntimeGCCyclesTotal,
		obs.MetricRuntimeSchedLatencySeconds + `{quantile="0.5"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
}

// TestSLOMetricsPublished: SLO counters and objectives appear after
// classified queries.
func TestSLOMetricsPublished(t *testing.T) {
	ts := startTestServer(t)
	if code, _ := get(t, ts.URL+"/query"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	_, text := get(t, ts.URL+"/metrics")
	for _, needle := range []string{
		obs.MetricSLOEventsTotal + `{class="default",result="good"} 1`,
		obs.MetricSLOObjectiveSeconds + `{class="default"} 30`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q:\n%s", needle, text)
		}
	}
}

// TestHealthzReportsDurability checks both modes of /healthz.
func TestHealthzReportsDurability(t *testing.T) {
	ts := startTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"durability":"disabled"`) {
		t.Fatalf("/healthz = %d: %s", code, body)
	}

	dts, _ := startDurableServer(t, t.TempDir())
	code, body = get(t, dts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"durability":"enabled"`) {
		t.Fatalf("durable /healthz = %d: %s", code, body)
	}
	if !strings.Contains(body, `"recovery"`) {
		t.Fatalf("durable /healthz missing recovery info: %s", body)
	}
}

// TestDurableServerSurvivesRestart writes through /sql, tears the server
// down, boots a second server on the same data directory and reads the rows
// back — the HTTP-level version of the storage recovery tests.
func TestDurableServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, s1 := startDurableServer(t, dir)
	if code, sr := postSQL(t, ts1.URL, "INSERT INTO iris VALUES (9.25, 8.5, 7.75, 6.5, 2)"); code != http.StatusOK || !sr.OK {
		t.Fatalf("insert = %d: %+v", code, sr)
	}
	if code, sr := postSQL(t, ts1.URL, "DELETE FROM iris WHERE label = 0"); code != http.StatusOK || !sr.OK {
		t.Fatalf("delete = %d: %+v", code, sr)
	}
	_, want := postSQL(t, ts1.URL, "SELECT sepal_length, label FROM iris")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := startDurableServer(t, dir)
	code, got := postSQL(t, ts2.URL, "SELECT sepal_length, label FROM iris")
	if code != http.StatusOK {
		t.Fatalf("post-restart SELECT = %d", code)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("post-restart rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	// The demo reseed on restart was a no-op: recovery found the table.
	if code, body := get(t, ts2.URL+"/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"durability":"enabled"`) {
		t.Fatalf("post-restart /healthz = %d: %s", code, body)
	}
}
