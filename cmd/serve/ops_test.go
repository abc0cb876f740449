package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"accelscore/internal/db"
	"accelscore/internal/httpapi"
	"accelscore/internal/obs"
	"accelscore/internal/router"
)

// opsTier is one binary's full handler plus a path that runs (and so traces)
// one query on it.
type opsTier struct {
	name, query string
	ts          *httptest.Server
}

// startOpsTiers boots the serve mux and, over it, the router mux: the two
// surfaces internal/httpapi sits under.
func startOpsTiers(t *testing.T) []opsTier {
	t.Helper()
	shardSrv := startTestServer(t)
	shard, err := router.NewHTTPShard("shard-0", shardSrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Backends: []router.Backend{shard}, Obs: obs.NewObserver()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(router.Handler(rt))
	t.Cleanup(front.Close)
	return []opsTier{
		{name: "serve", query: "/query", ts: shardSrv},
		{name: "router", query: "/query?sql=EXEC+sp_score_model+@model='iris_rf',+@data='iris'", ts: front},
	}
}

// TestOpsSurface: the ops endpoints are one table, and it reads the same on
// the serve mux and the router mux — status and content type of every path,
// and a scrape that passes the exposition lint.
func TestOpsSurface(t *testing.T) {
	for _, tier := range startOpsTiers(t) {
		t.Run(tier.name, func(t *testing.T) {
			if code, body := get(t, tier.ts.URL+tier.query); code != http.StatusOK {
				t.Fatalf("%s = %d: %s", tier.query, code, body)
			}
			_, queries := get(t, tier.ts.URL+"/debug/queries")
			known := regexp.MustCompile(`q-\d+`).FindString(queries)
			if known == "" {
				t.Fatalf("/debug/queries lists no trace:\n%s", queries)
			}
			for _, c := range []struct {
				path        string
				status      int
				contentType string
				body        string
			}{
				{"/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", httpapi.MetricHTTPRequestsTotal},
				{"/debug/queries", 200, "text/plain; charset=utf-8", "download: /debug/trace/" + known},
				{"/debug/trace/" + known, 200, "application/json", `"traceEvents"`},
				{"/debug/trace/q-999999", 404, "text/plain; charset=utf-8", "not retained"},
				{"/debug/trace/", 400, "text/plain; charset=utf-8", "trace id required"},
				{"/debug/pprof/", 200, "text/html; charset=utf-8", "goroutine"},
				{"/debug/pprof/cmdline", 200, "text/plain; charset=utf-8", ""},
				{"/etc/passwd", 404, "text/plain; charset=utf-8", ""},
			} {
				resp, err := http.Get(tier.ts.URL + c.path)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != c.contentType ||
					!strings.Contains(string(body), c.body) {
					t.Errorf("%s = %d %q, want %d %q with %q in the body:\n%.300s", c.path, resp.StatusCode,
						resp.Header.Get("Content-Type"), c.status, c.contentType, c.body, body)
				}
			}
			_, scrape := get(t, tier.ts.URL+"/metrics")
			if probs := obs.LintPrometheus(strings.NewReader(scrape)); len(probs) != 0 {
				t.Errorf("live /metrics scrape fails lint: %v", probs)
			}
		})
	}
}

// TestRouteLabelBoundsCardinality: the route label of the HTTP metrics is
// the mux pattern that served the request, so probing random URLs lands in
// "other" instead of minting series — on both binaries' muxes.
func TestRouteLabelBoundsCardinality(t *testing.T) {
	tiers := startOpsTiers(t)
	for i, want := range [][]string{
		{"/", "/debug/pprof/", "/debug/queries", "/debug/trace/", "/fig/", "/healthz", "/metrics", "/query", "/score", "/sql", "/warm", "other"},
		{"/debug/pprof/", "/debug/queries", "/debug/trace/", "/healthz", "/metrics", "/query", "/warm", "other"},
	} {
		tier := tiers[i]
		for _, path := range []string{
			"/", "/query", "/sql", "/score", "/warm", "/healthz", "/fig/nope", "/fig/also-nope",
			"/debug/trace/q-00001", "/debug/trace/q-00002", "/debug/queries",
			"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap?debug=1",
			"/metrics", "/etc/passwd", "/favicon.ico", "/query/../../etc/shadow",
		} {
			get(t, tier.ts.URL+path)
		}
		_, scrape := get(t, tier.ts.URL+"/metrics")
		seen := map[string]bool{}
		for _, m := range regexp.MustCompile(httpapi.MetricHTTPRequestsTotal+`\{code="\d+",route="([^"]*)"\}`).FindAllStringSubmatch(scrape, -1) {
			seen[m[1]] = true
		}
		var got []string
		for route := range seen {
			got = append(got, route)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s route labels:\n got %v\nwant %v", tier.name, got, want)
		}
	}
}

// refusingJournal fails every insert the way a WAL that cannot fsync does.
type refusingJournal struct{ db.Journal }

var errDiskGone = errors.New("wal: fsync: input/output error")

func (refusingJournal) BeginOp() {}
func (refusingJournal) EndOp()   {}
func (refusingJournal) LogInsert(string, []db.Column, [][]db.Value) error {
	return errDiskGone
}

// TestSQLJournalFailureIs500: a write the journal refused is the server's
// failure, not the statement's; a parse error and an unknown table stay the
// client's.
func TestSQLJournalFailureIs500(t *testing.T) {
	ts, s := startTestServerFaults(t, "")
	_, before := postSQL(t, ts.URL, "SELECT label FROM iris")
	s.demo.DB.SetJournal(refusingJournal{})
	code, sr := postSQL(t, ts.URL, "INSERT INTO iris VALUES (1.0, 2.0, 3.0, 4.0, 1)")
	if code != http.StatusInternalServerError || sr.OK || !strings.Contains(sr.Error, errDiskGone.Error()) {
		t.Fatalf("refused INSERT = %d %+v, want 500 naming the journal's error", code, sr)
	}
	if code, _ := postSQL(t, ts.URL, "SELEKT nope"); code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", code)
	}
	if code, _ := postSQL(t, ts.URL, "INSERT INTO nowhere VALUES (1)"); code != http.StatusBadRequest {
		t.Fatalf("unknown table = %d, want 400", code)
	}
	if _, after := postSQL(t, ts.URL, "SELECT label FROM iris"); len(after.Rows) != len(before.Rows) {
		t.Errorf("a refused INSERT was applied: %d rows, %d before", len(after.Rows), len(before.Rows))
	}
	// /sql statements are counted by kind, the ingest workload's INSERTs too.
	_, scrape := get(t, ts.URL+"/metrics")
	if !strings.Contains(scrape, `accelscore_statements_total{kind="insert"} 2`) ||
		!strings.Contains(scrape, `accelscore_statements_total{kind="parse_error"} 1`) {
		t.Errorf("/sql statements not counted by kind:\n%s", grepLines(scrape, "accelscore_statements_total"))
	}
}

func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
