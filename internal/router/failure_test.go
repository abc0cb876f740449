package router_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// heldBackend parks every Score call until release is closed, announcing
// each arrival on entered.
type heldBackend struct {
	router.Backend
	entered chan struct{}
	release chan struct{}
}

func (h *heldBackend) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	h.entered <- struct{}{}
	select {
	case <-h.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.Backend.Score(ctx, req)
}

// announcingBackend announces every Score call that reaches it.
type announcingBackend struct {
	router.Backend
	served chan struct{}
}

func (a *announcingBackend) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	a.served <- struct{}{}
	return a.Backend.Score(ctx, req)
}

// tenantOn names a tenant whose queries an n-shard tier homes on shard:
// tenant-affine queries are one sub-query each.
func tenantOn(shard, n int) string {
	for i := 0; ; i++ {
		if tenant := fmt.Sprintf("tenant-%d", i); pipeline.TenantShard(tenant, n) == shard {
			return tenant
		}
	}
}

// TestRouterBackPressureIsNotShardFailure saturates shard 0's sub-query slot
// and queue: the overflow is the ROUTER's bound, so the sub-query moves to
// shard 1 without shard 0's health hearing of it. With one strike enough to
// degrade, any failure signal would show as a transition.
func TestRouterBackPressureIsNotShardFailure(t *testing.T) {
	const rows = 200
	held := &heldBackend{
		Backend: &router.Local{Name: "shard-0", Pipe: newShardPipeline(t, rows)},
		entered: make(chan struct{}, 3),
		release: make(chan struct{}),
	}
	spare := &announcingBackend{
		Backend: &router.Local{Name: "shard-1", Pipe: newShardPipeline(t, rows)},
		served:  make(chan struct{}, 3),
	}
	r, err := router.New(router.Config{
		Backends:  []router.Backend{held, spare},
		Health:    &router.HealthConfig{FailThreshold: 1},
		Admission: &router.AdmissionConfig{MaxInFlight: 16, ShardInFlight: 1, ShardQueue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := newShardPipeline(t, rows).ExecQuery(plainSQL)
	if err != nil {
		t.Fatal(err)
	}
	tenant := tenantOn(0, 2)
	done := make(chan error, 3)
	query := func() {
		got, err := r.Query(context.Background(), plainSQL, router.QueryOptions{Tenant: tenant})
		if err == nil && !reflect.DeepEqual(got.Predictions, want.Predictions) {
			err = fmt.Errorf("predictions differ from single-node")
		}
		done <- err
	}
	timeout := time.After(10 * time.Second)

	go query() // takes shard 0's only slot and parks in the backend
	select {
	case <-held.entered:
	case <-timeout:
		t.Fatal("first query never reached shard 0")
	}
	go query() // of these two, one waits in shard 0's one-deep queue...
	go query()
	select {
	case <-spare.served: // ...and the other overflows to shard 1
	case <-timeout:
		t.Fatal("overflow sub-query never rerouted to shard 1")
	}
	close(held.release)
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("queries never finished")
		}
	}
	for i := 0; i < 2; i++ {
		if snap := r.Health().Snapshot(i); snap.State != router.ShardHealthy || snap.Transitions != 0 || snap.InFlight != 0 {
			t.Fatalf("router back-pressure was charged to shard %d: %+v", i, snap)
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

// TestRouterStragglerGapSkipsMissingPartition: with partition 0 lost, a
// partial result's straggler gap is slowest minus fastest of the partitions
// that answered, not slowest minus zero.
func TestRouterStragglerGapSkipsMissingPartition(t *testing.T) {
	const n = 3
	live := newShardPipeline(t, 300)
	backends := make([]router.Backend, n)
	for i := range backends {
		backends[i] = &partitionKiller{
			Backend: &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: live},
			part:    "0/3",
		}
	}
	r, err := router.New(router.Config{Backends: backends, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Query(context.Background(), plainSQL, router.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !reflect.DeepEqual(res.MissingPartitions, []int{0}) {
		t.Fatalf("partial=%v missing=%v, want partition 0 missing", res.Partial, res.MissingPartitions)
	}
	fastest, slowest := res.ShardLatency[1], res.ShardLatency[2]
	if fastest > slowest {
		fastest, slowest = slowest, fastest
	}
	if fastest <= 0 {
		t.Fatalf("surviving latencies %v", res.ShardLatency)
	}
	if res.StragglerGap != slowest-fastest {
		t.Fatalf("straggler gap %v over latencies %v, want %v", res.StragglerGap, res.ShardLatency[1:], slowest-fastest)
	}
}
