package router_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"accelscore/internal/harness"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// tenantOn names a tenant whose queries an n-shard tier homes on shard:
// tenant-affine queries are one sub-query each.
func tenantOn(shard, n int) string {
	for i := 0; ; i++ {
		if tenant := fmt.Sprintf("tenant-%d", i); pipeline.TenantShard(tenant, n) == shard {
			return tenant
		}
	}
}

// TestShardBackPressureIsNotShardFailure: a shard whose executor queue is
// full answers /score 503 "rejected". It is healthy and busy, so each
// refusal reroutes the sub-query (and is counted as a reroute) without its
// health hearing of it; an "internal" reply is the shard's fault and still
// degrades it.
func TestShardBackPressureIsNotShardFailure(t *testing.T) {
	const rows, queries = 200, 10
	want, err := newShardPipeline(t, rows).ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	tenant := tenantOn(0, 2)
	for _, code := range []string{router.CodeRejected, router.CodeInternal} {
		busy := &scriptedBackend{err: &router.ShardError{Shard: "scripted", Code: code, Msg: "shard says no"}}
		o := obs.NewObserver()
		r, err := router.New(router.Config{
			Backends: []router.Backend{
				servedShard(t, busy, nil),
				&router.Local{Name: "shard-1", Pipe: newShardPipeline(t, rows)},
			},
			Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < queries; i++ {
			got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{Tenant: tenant})
			if err != nil {
				t.Fatalf("%s: query %d: %v", code, i, err)
			}
			if !reflect.DeepEqual(got.Predictions, want.Predictions) {
				t.Fatalf("%s: query %d: predictions differ from single-node", code, i)
			}
		}
		snap := r.Health().Snapshot(0)
		var scrape strings.Builder
		if err := o.Metrics().WritePrometheus(&scrape); err != nil {
			t.Fatal(err)
		}
		switch code {
		case router.CodeRejected:
			if snap.State != router.ShardHealthy || snap.Transitions != 0 || busy.calls.Load() != queries {
				t.Errorf("shard back-pressure was charged to its health: %+v after %d refusals", snap, busy.calls.Load())
			}
			if line := fmt.Sprintf(`accelscore_router_reroutes_total{shard="0"} %d`, queries); !strings.Contains(scrape.String(), line) {
				t.Errorf("refusals not counted as reroutes: no %q on /metrics", line)
			}
		default:
			// Two failures degrade, three more quarantine; after that the
			// router stops asking.
			if snap.State != router.ShardQuarantined || busy.calls.Load() != 5 {
				t.Errorf("internal failures: %+v after %d calls, want quarantined after 5", snap, busy.calls.Load())
			}
		}
		r.Close()
	}
}

// getQuery GETs /query on a router front and decodes the envelope.
func getQuery(t *testing.T, rt *router.Router, params string) (int, router.QueryResponse) {
	t.Helper()
	front := httptest.NewServer(router.Handler(rt))
	defer front.Close()
	resp, err := front.Client().Get(front.URL + "/query?" + params + "sql=" + url.QueryEscape(plainSQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr router.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, qr
}

// TestHandlerShardErrorKeepsItsClass: a shard's error reply carries a wire
// code, and a single-sub-query /query surfaces that class, not a 400.
func TestHandlerShardErrorKeepsItsClass(t *testing.T) {
	for code, want := range map[string]int{
		router.CodeRejected:   http.StatusServiceUnavailable,
		router.CodeTimeout:    http.StatusGatewayTimeout,
		router.CodeCanceled:   499,
		router.CodeInternal:   http.StatusInternalServerError,
		router.CodeBadRequest: http.StatusBadRequest,
	} {
		if got := router.StatusOf(code); got != want {
			t.Errorf("StatusOf(%q) = %d, want %d", code, got, want)
		}
		shard := &scriptedBackend{err: &router.ShardError{Shard: "scripted", Code: code, Msg: "shard says no"}}
		rt, err := router.New(router.Config{Backends: []router.Backend{servedShard(t, shard, nil)}})
		if err != nil {
			t.Fatal(err)
		}
		status, qr := getQuery(t, rt, "")
		if status != want || qr.OK || !strings.Contains(qr.Error, "shard says no") {
			t.Errorf("shard code %q: HTTP %d (%q), want %d", code, status, qr.Error, want)
		}
		if n := shard.calls.Load(); n != 1 {
			t.Errorf("shard code %q: %d calls to a one-shard tier", code, n)
		}
		rt.Close()
	}
}

// TestUnreachableTierIs503: with every replica dead the tier is unavailable,
// however many sub-queries the statement scattered into. Only the
// two-partition scatter (a PartialError) used to say so; a tenant-affine
// query and a one-shard tier unwrap their sole RouteError, which fell
// through to 400.
func TestUnreachableTierIs503(t *testing.T) {
	dead := func(name string) router.Backend {
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close() // nothing listens on its port any more
		shard, err := router.NewHTTPShard(name, ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		return shard
	}
	for _, c := range []struct {
		name, params string
		shards       int
	}{
		{"scatter over two shards", "", 2},
		{"tenant-affine over two shards", "tenant=acme&", 2},
		{"one-shard tier", "", 1},
	} {
		backends := make([]router.Backend, c.shards)
		for i := range backends {
			backends[i] = dead(fmt.Sprintf("shard-%d", i))
		}
		rt, err := router.New(router.Config{Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		status, qr := getQuery(t, rt, c.params)
		if status != http.StatusServiceUnavailable || qr.OK || qr.Error == "" {
			t.Errorf("%s: HTTP %d (%q), want 503", c.name, status, qr.Error)
		}
		rt.Close()
	}
	// A statement the router refuses is still the client's fault.
	rt, err := router.New(router.Config{Backends: []router.Backend{dead("shard-0")}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(router.Handler(rt))
	defer front.Close()
	for _, sql := range []string{"SELEKT", "SELECT 1", "EXEC sp_score_model @model='m'"} {
		resp, err := front.Client().Get(front.URL + "/query?sql=" + url.QueryEscape(sql))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: HTTP %d, want 400", sql, resp.StatusCode)
		}
	}
}

// stallingBackend never answers a Score: it returns when the caller's
// context ends, with that context's error.
type stallingBackend struct{ router.Backend }

func (stallingBackend) Score(ctx context.Context, _ router.Request) (*router.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestLostToTheQueryContextKeepsItsClass: a query whose partitions were all
// lost to its own context ending fails with that context's class — to
// errors.Is, on the HTTP status and in the harness's tally — however many
// sub-queries it scattered into. Partitions lost to shard faults are the
// tier being unavailable on any width.
func TestLostToTheQueryContextKeepsItsClass(t *testing.T) {
	const budget = 20 * time.Millisecond
	for _, c := range []struct {
		name    string
		end     func(context.Context) (context.Context, context.CancelFunc)
		backend router.Backend
		cause   error
		status  int
		outcome harness.Outcome
	}{
		{"deadline", func(ctx context.Context) (context.Context, context.CancelFunc) {
			return context.WithTimeout(ctx, budget)
		}, stallingBackend{}, context.DeadlineExceeded, http.StatusGatewayTimeout, harness.Deadline},
		{"cancel", func(ctx context.Context) (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(ctx)
			time.AfterFunc(budget, cancel)
			return ctx, cancel
		}, stallingBackend{}, context.Canceled, 499, harness.Canceled},
		{"fault", context.WithCancel, &scriptedBackend{err: errors.New("shard fault")},
			nil, http.StatusServiceUnavailable, harness.Failed},
	} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s on %d shard(s)", c.name, shards)
			backends := make([]router.Backend, shards)
			for i := range backends {
				backends[i] = c.backend
			}
			rt, err := router.New(router.Config{Backends: backends})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := c.end(context.Background())
			_, err = rt.Query(ctx, plainSQL, router.QueryOptions{})
			cancel()
			for _, cause := range []error{context.DeadlineExceeded, context.Canceled} {
				if got := errors.Is(err, cause); got != (cause == c.cause) {
					t.Errorf("%s: errors.Is(%v, %v) = %v", name, err, cause, got)
				}
			}
			if got := harness.Classify(err); got != c.outcome {
				t.Errorf("%s: Classify(%v) = %v, want %v", name, err, got, c.outcome)
			}

			ctx, cancel = c.end(context.Background())
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/query?sql="+url.QueryEscape(plainSQL), nil)
			router.Handler(rt).ServeHTTP(rec, req.WithContext(ctx))
			cancel()
			if rec.Code != c.status {
				t.Errorf("%s: HTTP %d (%s), want %d", name, rec.Code, strings.TrimSpace(rec.Body.String()), c.status)
			}
			rt.Close()
		}
	}
}

// slowBackend answers every sub-query after a fixed stall.
type slowBackend struct {
	router.Backend
	stall time.Duration
}

func (b *slowBackend) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	time.Sleep(b.stall)
	return b.Backend.Score(ctx, req)
}

// TestRouterStragglerGapSkipsMissingPartition: with partition 0 lost the
// query fails, and the straggler gap it observes is slowest minus fastest of
// the partitions that answered (each after the same stall), not slowest
// minus the lost partition's near-zero time.
func TestRouterStragglerGapSkipsMissingPartition(t *testing.T) {
	const n, stall = 3, 50 * time.Millisecond
	live := newShardPipeline(t, 300)
	backends := make([]router.Backend, n)
	for i := range backends {
		backends[i] = &partitionKiller{
			Backend: &slowBackend{Backend: &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: live}, stall: stall},
			part:    "0/3",
		}
	}
	o := obs.NewObserver()
	r, err := router.New(router.Config{Backends: backends, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Query(context.Background(), plainSQL, router.QueryOptions{})
	var pe *router.PartialError
	if !errors.As(err, &pe) || !slices.Equal(pe.Missing, []int{0}) {
		t.Fatalf("err = %v, want a *router.PartialError naming partition 0", err)
	}
	gap := o.Metrics().Histogram(obs.MetricRouterStragglerGap, "", nil)
	if gap.Count() != 1 || gap.Sum() >= stall.Seconds() {
		t.Fatalf("%d straggler gap observations summing to %gs; want one, below the %v stall both answers paid",
			gap.Count(), gap.Sum(), stall)
	}
}
