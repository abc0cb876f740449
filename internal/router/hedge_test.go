package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// hedgeDispatcher builds a hedging dispatcher over n shards whose latency
// windows already hold enough samples of `trigger` to hedge at exactly that
// delay, with metrics on so tests can read the hedge outcomes.
func hedgeDispatcher(n int, trigger time.Duration, budget *hedgeBudget) (*dispatcher, *obs.Registry) {
	reg := obs.NewRegistry()
	d := testDispatcher(n, HealthConfig{FailThreshold: 1}, nil)
	d.budget = budget
	d.metrics = obs.NewRouterMetrics(reg)
	for shard := 0; shard < n; shard++ {
		for i := 0; i < hedgeMinSamples; i++ {
			d.lat[shard].Observe(trigger)
		}
	}
	return d, reg
}

// hedgeCount reads accelscore_router_hedges_total{outcome}.
func hedgeCount(reg *obs.Registry, outcome string) float64 {
	return reg.Counter(obs.MetricRouterHedgesTotal, "", "outcome", outcome).Value()
}

// TestHedgeWinBitIdentical stalls the primary so the hedge fires, answers
// identically from the replica, and checks the merged outcome: hedge won,
// value intact, no error.
func TestHedgeWinBitIdentical(t *testing.T) {
	d, reg := hedgeDispatcher(2, 5*time.Millisecond, newHedgeBudget(1, 4))
	results := d.scatter(context.Background(), parts(1), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if shard == 0 { // primary stalls past the trigger
				select {
				case <-time.After(500 * time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return answer("answer"), nil
		})
	r := results[0]
	if r.Err != nil {
		t.Fatalf("hedged partition failed: %v", r.Err)
	}
	if r.Value.ShardID != "answer" || r.Shard != 1 {
		t.Fatalf("got value %v from shard %d, want answer from shard 1", r.Value, r.Shard)
	}
	if !r.Hedged || !r.HedgeWon {
		t.Fatalf("Hedged=%v HedgeWon=%v, want both true", r.Hedged, r.HedgeWon)
	}
	if hedgeCount(reg, hedgeWin) != 1 {
		t.Fatal("want one win")
	}
	// The reaped primary is nobody's fault: one strike would have degraded it.
	if s := d.health.State(0); s != ShardHealthy {
		t.Fatalf("reaped hedge loser left shard 0 %s", s)
	}
	// The trigger the race used is the one /metrics shows.
	got := reg.Gauge(obs.MetricRouterHedgeTrigger, "", "shard", "0").Value()
	if got != (5 * time.Millisecond).Seconds() {
		t.Fatalf("published hedge trigger %v s, want 0.005", got)
	}
}

// TestHedgeTriggerLearnsFromSettledAttempts starts from empty windows: the
// trigger stays 0 (no hedging) until settle has fed a shard hedgeMinSamples
// successful sub-queries, then reads the shard's P95 — here the 2 ms floor,
// since a fake shard answers in microseconds. Failures feed nothing.
func TestHedgeTriggerLearnsFromSettledAttempts(t *testing.T) {
	d := testDispatcher(2, HealthConfig{}, nil)
	ok := func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		return answer("answer"), nil
	}
	bad := func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		return nil, NoReroute(errors.New("bad query"))
	}
	for i := 0; i < hedgeMinSamples; i++ {
		d.scatter(context.Background(), parts(1), 0, bad)
	}
	for i := 0; i < hedgeMinSamples-1; i++ {
		d.scatter(context.Background(), parts(1), 0, ok)
	}
	if got := d.hedgeTrigger(0); got != 0 {
		t.Fatalf("trigger %v after %d successes, want 0 (too few samples)", got, hedgeMinSamples-1)
	}
	d.scatter(context.Background(), parts(1), 0, ok)
	if got := d.hedgeTrigger(0); got != hedgeMinDelay {
		t.Fatalf("trigger %v after %d successes, want the %v floor", got, hedgeMinSamples, hedgeMinDelay)
	}
	if got := d.hedgeTrigger(1); got != 0 {
		t.Fatalf("shard 1 served nothing but has trigger %v", got)
	}
}

// TestHedgeMismatchFailsLoudly makes the primary ignore cancellation and
// return a DIFFERENT answer than the hedge: the completed pair must be
// compared and the divergence must fail the query loudly (NoReroute), never
// silently pick one side.
func TestHedgeMismatchFailsLoudly(t *testing.T) {
	d, reg := hedgeDispatcher(2, 5*time.Millisecond, newHedgeBudget(1, 4))
	results := d.scatter(context.Background(), parts(1), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if shard == 0 {
				// Outlive the trigger, ignore the cancel, answer divergently.
				time.Sleep(25 * time.Millisecond)
				return &Result{Predictions: []int{1}}, nil
			}
			return &Result{Predictions: []int{2}}, nil
		})
	r := results[0]
	if r.Err == nil {
		t.Fatalf("divergent hedge pair returned value %v, want loud failure", r.Value)
	}
	if !IsNoReroute(r.Err) {
		t.Fatalf("mismatch error should be NoReroute, got %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "divergent") {
		t.Fatalf("mismatch error %q should name the divergence", r.Err)
	}
	if hedgeCount(reg, hedgeMismatch) != 1 {
		t.Fatal("want one mismatch")
	}
}

// TestHedgeBudgetExhaustion drains the budget and checks further triggers
// are denied: the primary's answer is awaited instead, and no hedge call
// reaches another shard.
func TestHedgeBudgetExhaustion(t *testing.T) {
	budget := newHedgeBudget(0.001, 1) // one token, near-zero earn rate
	if !budget.trySpend() {
		t.Fatal("budget should start with its burst available")
	}
	d, reg := hedgeDispatcher(2, time.Millisecond, budget)
	var hedgeCalls sync.Map
	results := d.scatter(context.Background(), parts(1), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if isHedgeAttempt(ctx) {
				hedgeCalls.Store(shard, true)
			}
			time.Sleep(10 * time.Millisecond) // outlive the trigger
			return answer("answer"), nil
		})
	r := results[0]
	if r.Err != nil || r.Value.ShardID != "answer" || r.Shard != 0 {
		t.Fatalf("got %v from shard %d (err %v), want primary answer", r.Value, r.Shard, r.Err)
	}
	if r.HedgeWon {
		t.Fatal("no hedge launched, so none can win")
	}
	if hedgeCount(reg, hedgeDenied) != 1 {
		t.Fatal("want one denied")
	}
	n := 0
	hedgeCalls.Range(func(_, _ any) bool { n++; return true })
	if n != 0 {
		t.Fatalf("%d hedge calls reached shards with an empty budget", n)
	}
}

// TestHedgeBudgetEarnRate checks the token bucket's arithmetic: fraction f
// per earn, capped at burst, one token per spend.
func TestHedgeBudgetEarnRate(t *testing.T) {
	b := newHedgeBudget(0.5, 2)
	if !b.trySpend() || !b.trySpend() {
		t.Fatal("burst of 2 should allow two immediate spends")
	}
	if b.trySpend() {
		t.Fatal("third spend should fail on an empty bucket")
	}
	b.earn() // 0.5
	if b.trySpend() {
		t.Fatal("half a token must not allow a spend")
	}
	b.earn() // 1.0
	if !b.trySpend() {
		t.Fatal("two earns at fraction 0.5 should fund one hedge")
	}
}

// TestHedgeSkipsUnhealthyTarget degrades every replica: the trigger fires,
// no target is found, the token is refunded, and the primary serves.
func TestHedgeSkipsUnhealthyTarget(t *testing.T) {
	budget := newHedgeBudget(1, 1)
	d, reg := hedgeDispatcher(3, time.Millisecond, budget)
	fail(d.health, 1, 1)
	fail(d.health, 2, 1)
	results := d.scatter(context.Background(), parts(1), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if shard != 0 {
				t.Errorf("hedge reached unhealthy shard %d", shard)
			}
			time.Sleep(10 * time.Millisecond)
			return answer("answer"), nil
		})
	if results[0].Err != nil || results[0].Value.ShardID != "answer" {
		t.Fatalf("primary should have served: %+v", results[0])
	}
	if hedgeCount(reg, hedgeDenied) != 1 {
		t.Fatal("want one denied")
	}
	if !budget.trySpend() {
		t.Fatal("aborted hedge should have refunded its token")
	}
}

// TestRouteErrorLeadsWithPreferredShard exhausts every route and checks the
// terminal error names the preferred shard's own failure first, keeps every
// attempt reachable via errors.Is, and reports the preferred shard in the
// result.
func TestRouteErrorLeadsWithPreferredShard(t *testing.T) {
	d := testDispatcher(3, HealthConfig{}, nil)
	preferredErr := errors.New("disk on fire")
	results := d.scatter(context.Background(), parts(3)[1:2], 1, // partition 1, homed on shard 1
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if shard == 1 {
				return nil, preferredErr
			}
			return nil, fmt.Errorf("shard %d flaky", shard)
		})
	r := results[0]
	if r.Err == nil {
		t.Fatal("want terminal error")
	}
	var re *RouteError
	if !errors.As(r.Err, &re) {
		t.Fatalf("want *RouteError, got %T: %v", r.Err, r.Err)
	}
	if re.Preferred != 1 || r.Shard != 1 {
		t.Fatalf("preferred %d, result shard %d, want 1", re.Preferred, r.Shard)
	}
	if len(re.Attempts) == 0 || !errors.Is(re.Attempts[0], preferredErr) {
		t.Fatalf("attempts %v should lead with the preferred shard's own failure", re.Attempts)
	}
	if !strings.HasPrefix(r.Err.Error(), "shard 1: disk on fire") {
		t.Fatalf("message %q should lead with the preferred shard's failure", r.Err)
	}
	if !errors.Is(r.Err, preferredErr) {
		t.Fatal("errors.Is must reach the preferred shard's error through Unwrap")
	}
	if !strings.Contains(r.Err.Error(), "reroutes also failed") {
		t.Fatalf("message %q should list the reroute failures", r.Err)
	}
}

// TestRouteErrorAllQuarantined preserves the ErrNoShardAvailable contract
// through the RouteError wrapper, for every partition of a scatter.
func TestRouteErrorAllQuarantined(t *testing.T) {
	d := testDispatcher(2, oneStrike(), nil)
	down := func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		return nil, errors.New("down")
	}
	d.scatter(context.Background(), parts(2), 0, down) // two failures each: both quarantined
	for i := 0; i < 2; i++ {
		if s := d.health.State(i); s != ShardQuarantined {
			t.Fatalf("shard %d is %s, want quarantined", i, s)
		}
	}
	for _, r := range d.scatter(context.Background(), parts(2), 0, down) {
		var re *RouteError
		if !errors.As(r.Err, &re) || !errors.Is(r.Err, ErrNoShardAvailable) {
			t.Fatalf("want ErrNoShardAvailable via RouteError, got %v", r.Err)
		}
		if code := statusFor(r.Err); code != http.StatusServiceUnavailable {
			t.Fatalf("maps to HTTP %d, want 503", code)
		}
	}
}
