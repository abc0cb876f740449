package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// boundedSQL is plainSQL with an @limit small enough that the plan gives it
// one sub-query on any tier.
const boundedSQL = plainSQL + ", @limit=64"

// countedShards builds n replicas over one pipeline, each behind a
// scriptedBackend that counts the sub-queries reaching it and, with nothing
// scripted, passes them on.
func countedShards(pipe *pipeline.Pipeline, n int) ([]*scriptedBackend, []router.Backend) {
	shards := make([]*scriptedBackend, n)
	backends := make([]router.Backend, n)
	for i := range shards {
		shards[i] = &scriptedBackend{Backend: &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: pipe}}
		backends[i] = shards[i]
	}
	return shards, backends
}

// TestAnyWidthIsBitIdentical: whatever width the plan picks, the gather is
// the single-node answer field for field, and the width is the one the plan
// names: one sub-query per 1024 rows of @limit, at most one per shard, one
// per shard when the statement is unbounded.
func TestAnyWidthIsBitIdentical(t *testing.T) {
	const rows = 4200
	replica, single := newShardPipeline(t, rows), newShardPipeline(t, rows)
	limits := []struct{ limit, width int }{ // width before the clamp to n
		{0, 5}, {1, 1}, {1023, 1}, {1024, 1}, {1025, 2}, {2049, 3}, {rows + 100, 5},
	}
	const params = "@model='iris_rf', @data='iris', @backend='CPU_ONNX'"
	shapes := map[string]string{
		"no filter":   "EXEC sp_score_model " + params + "%s",
		"where":       "EXEC sp_score_model " + params + "%s, @where='petal_width < 1.5'",
		"count":       "SELECT COUNT(*) FROM PREDICT(" + params + "%s)",
		"group_count": "SELECT prediction, COUNT(*) FROM PREDICT(" + params + "%s) GROUP BY prediction",
	}
	for _, n := range []int{1, 2, 3, 5} {
		_, backends := countedShards(replica, n)
		r, err := router.New(router.Config{Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range limits {
			clause := ""
			if l.limit > 0 {
				clause = fmt.Sprintf(", @limit=%d", l.limit)
			}
			for shape, format := range shapes {
				sql := fmt.Sprintf(format, clause)
				want, err := single.ExecQuery(sql)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Query(context.Background(), sql, router.QueryOptions{})
				if err != nil {
					t.Fatalf("%d shards, @limit %d, %s: %v", n, l.limit, shape, err)
				}
				fail := func(format string, args ...any) {
					t.Helper()
					t.Errorf("%d shards, @limit %d, %s: %s", n, l.limit, shape, fmt.Sprintf(format, args...))
				}
				if got.Shards != min(l.width, n) {
					fail("scattered %d wide, the plan says %d", got.Shards, min(l.width, n))
				}
				if got.Reroutes != 0 {
					fail("%d reroutes on a healthy tier", got.Reroutes)
				}
				if !slices.Equal(got.Predictions, want.Predictions) {
					fail("%d predictions differ from single-node's %d", len(got.Predictions), len(want.Predictions))
				}
				if !slices.Equal(got.ScoredRows, want.ScoredRows) || (got.ScoredRows == nil) != (want.ScoredRows == nil) {
					fail("ordinals %d (nil %v), single-node %d (nil %v)",
						len(got.ScoredRows), got.ScoredRows == nil, len(want.ScoredRows), want.ScoredRows == nil)
				}
				if got.RowsScanned != want.RowsScanned || got.RowsScored != want.RowsScored {
					fail("scanned/scored %d/%d, single-node %d/%d", got.RowsScanned, got.RowsScored, want.RowsScanned, want.RowsScored)
				}
				if shape != "count" && shape != "group_count" {
					if got.Table != nil {
						fail("a non-aggregate gather built a result table")
					}
					continue
				}
				if !reflect.DeepEqual(got.Table.Rows(), want.Table.Rows()) {
					fail("aggregate %v, single-node %v", got.Table.Rows(), want.Table.Rows())
				}
			}
		}
		r.Close()
	}
}

// TestBoundedQueriesRotateAndReroute: a width-1 query keeps the tier's
// failure semantics. Homes rotate, so every shard is preferred equally; a
// failing home reroutes the query to the next replica and the reroute is
// charged to the home, not to shard 0; a refusal is no health signal; a
// quarantined home is passed over without a call or a reroute; a tenant
// still lands on its own shard.
func TestBoundedQueriesRotateAndReroute(t *testing.T) {
	const n, rows = 3, 200
	shards, backends := countedShards(newShardPipeline(t, rows), n)
	o := obs.NewObserver()
	r, err := router.New(router.Config{
		Backends: backends,
		Obs:      o,
		Health:   &router.HealthConfig{FailThreshold: 1, QuarantineThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := newShardPipeline(t, rows).ExecQuery(boundedSQL)
	if err != nil {
		t.Fatal(err)
	}
	calls := func() [n]int32 {
		var c [n]int32
		for i, s := range shards {
			c[i] = s.calls.Load()
		}
		return c
	}
	// round runs one bounded query per shard (one full turn of the home
	// rotation) and returns how many reroutes the turn took.
	round := func(step string, opts router.QueryOptions) (reroutes int) {
		t.Helper()
		for i := 0; i < n; i++ {
			got, err := r.Query(context.Background(), boundedSQL, opts)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if got.Shards != 1 || got.StragglerGap != 0 || !slices.Equal(got.Predictions, want.Predictions) {
				t.Fatalf("%s: width %d, gap %v, %d predictions (single-node %d)",
					step, got.Shards, got.StragglerGap, len(got.Predictions), len(want.Predictions))
			}
			reroutes += got.Reroutes
		}
		return reroutes
	}
	ledger := func() [n]uint64 {
		var l [n]uint64
		for i := range l {
			l[i] = r.RerouteCount(i)
		}
		return l
	}

	if re := round("healthy", router.QueryOptions{}) + round("healthy", router.QueryOptions{}); re != 0 || calls() != [n]int32{2, 2, 2} {
		t.Fatalf("2n bounded queries on a healthy tier: calls %v, %d reroutes; want two per shard and none", calls(), re)
	}

	const home = 1
	shards[home].err = &router.ShardError{Shard: "scripted", Code: router.CodeRejected, Msg: "queue full"}
	if re := round("home busy", router.QueryOptions{}); re != 1 || ledger() != [n]uint64{home: 1} {
		t.Fatalf("home shard busy: %d reroutes, ledger %v; want one, charged to shard %d", re, ledger(), home)
	}
	if snap := r.Health().Snapshot(home); snap.State != router.ShardHealthy || snap.Transitions != 0 {
		t.Fatalf("a rejected reply was charged to the shard's health: %+v", snap)
	}

	shards[home].err = &router.ShardError{Shard: "scripted", Code: router.CodeInternal, Msg: "disk on fire"}
	if re := round("home failing", router.QueryOptions{}) + round("home failing", router.QueryOptions{}); re != 2 || ledger() != [n]uint64{home: 3} {
		t.Fatalf("home shard failing: %d reroutes, ledger %v; want two more, charged to shard %d", re, ledger(), home)
	}
	if state := r.Health().Snapshot(home).State; state != router.ShardQuarantined {
		t.Fatalf("home shard is %s after two internal failures, want quarantined", state)
	}

	before := calls()
	if re := round("home quarantined", router.QueryOptions{}); re != 0 || calls()[home] != before[home] || ledger() != [n]uint64{home: 3} {
		t.Fatalf("home shard quarantined: %d reroutes, %d calls reached it, ledger %v; want it passed over uncounted",
			re, calls()[home]-before[home], ledger())
	}

	// The ledger an operator reads: /healthz and /metrics name the home.
	front := httptest.NewServer(router.Handler(r))
	defer front.Close()
	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Shards []struct {
			Reroutes uint64 `json:"reroutes"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Shards) != n {
		t.Fatalf("/healthz lists %d shards", len(health.Shards))
	}
	for i, s := range health.Shards {
		if s.Reroutes != ledger()[i] {
			t.Fatalf("/healthz reroutes %+v, want %v", health.Shards, ledger())
		}
	}
	var page bytes.Buffer
	if err := o.Metrics().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("%s{shard=\"%d\"} 3", obs.MetricRouterReroutesTotal, home); !strings.Contains(page.String(), line) ||
		strings.Count(page.String(), obs.MetricRouterReroutesTotal+"{") != 1 {
		t.Fatalf("/metrics should carry %q and no other shard's reroutes", line)
	}

	// The trace says what the plan decided.
	got, err := r.Query(context.Background(), boundedSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := o.Tracer.Get(got.TraceID)
	if !ok {
		t.Fatalf("trace %q not retained", got.TraceID)
	}
	attrs := tr.Snapshot().Attrs
	if attrs["scatter_width"] != "1" || attrs["row_bound"] != "64" || attrs["shards"] != "3" || attrs["home"] == "" {
		t.Fatalf("trace attrs %v do not name the plan", attrs)
	}

	// Tenant affinity is the same plan with the tenant's shard as home.
	before = calls()
	round("tenant", router.QueryOptions{Tenant: tenantOn(2, n)})
	if after := calls(); after != [n]int32{before[0], before[1], before[2] + n} {
		t.Fatalf("tenant homed on shard 2: calls went %v -> %v", before, after)
	}
}
