package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"accelscore/internal/pipeline"
)

func parts(n int) []pipeline.Partition {
	out := make([]pipeline.Partition, n)
	for i := range out {
		out[i] = pipeline.Partition{Index: i, Count: n}
	}
	return out
}

// testDispatcher builds a dispatcher over n shards with the given health
// thresholds, no admission control and no hedging.
func testDispatcher(n int, hc HealthConfig, onState func(shard int, s ShardState)) *dispatcher {
	return &dispatcher{
		shards: n,
		health: NewHealthManager(n, hc, nil, nil, onState),
		lat:    newLatencyTracker(n),
	}
}

// oneStrike makes every failure move the state machine: the first degrades
// a shard, the second quarantines it, and the frozen clock keeps it there.
func oneStrike() HealthConfig {
	return HealthConfig{FailThreshold: 1, QuarantineThreshold: 1, now: newTestClock().now}
}

// answer is a sub-result a fake shard can return and a test can tell apart.
func answer(tag string) *Result { return &Result{ShardID: tag, Predictions: []int{1}} }

func TestScatterHappyPath(t *testing.T) {
	d := testDispatcher(4, HealthConfig{}, nil)
	results := d.scatter(context.Background(), parts(4), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			return answer(fmt.Sprintf("s%d:p%d", shard, part.Index)), nil
		})
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("partition %d: %v", i, r.Err)
		}
		if r.Shard != i || r.Reroutes != 0 {
			t.Fatalf("partition %d ran on shard %d with %d reroutes", i, r.Shard, r.Reroutes)
		}
		if want := fmt.Sprintf("s%d:p%d", i, i); r.Value.ShardID != want {
			t.Fatalf("partition %d value %v, want %s", i, r.Value.ShardID, want)
		}
	}
	if pe := partial(results); pe != nil {
		t.Fatalf("unexpected partial: %v", pe)
	}
}

// TestScatterReroutesDeadShard kills one shard and checks its partition
// lands, correct and exactly once, on a healthy replica.
func TestScatterReroutesDeadShard(t *testing.T) {
	d := testDispatcher(3, HealthConfig{}, nil)
	results := d.scatter(context.Background(), parts(3), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if shard == 1 {
				return nil, errors.New("connection refused")
			}
			return answer("ok"), nil
		})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("partition %d failed despite healthy replicas: %v", r.Part.Index, r.Err)
		}
	}
	r1 := results[1]
	if r1.Shard == 1 {
		t.Fatal("partition 1 reported success on the dead shard")
	}
	if r1.Reroutes != 1 {
		t.Fatalf("partition 1 took %d reroutes, want 1", r1.Reroutes)
	}
}

// TestScatterQuarantinesAndSkipsShard drives a shard past its failure
// thresholds and checks later scatters skip it without calling it.
func TestScatterQuarantinesAndSkipsShard(t *testing.T) {
	transitions := make(map[int][]ShardState)
	var mu sync.Mutex
	d := testDispatcher(2, oneStrike(), func(shard int, s ShardState) {
		mu.Lock()
		transitions[shard] = append(transitions[shard], s)
		mu.Unlock()
	})
	deadCalls := 0
	do := func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		if shard == 0 {
			deadCalls++
			return nil, errors.New("boom")
		}
		return answer("ok"), nil
	}
	// Two scatters of partition 0 (preferred shard 0) quarantine it.
	for i := 0; i < 2; i++ {
		rs := d.scatter(context.Background(), parts(2)[:1], 0, do)
		if rs[0].Err != nil {
			t.Fatalf("scatter %d: %v", i, rs[0].Err)
		}
	}
	if s := d.health.State(0); s != ShardQuarantined {
		t.Fatalf("shard 0 is %s, want quarantined", s)
	}
	callsBefore := deadCalls
	rs := d.scatter(context.Background(), parts(2)[:1], 0, do)
	if rs[0].Err != nil || rs[0].Shard != 1 {
		t.Fatalf("scatter past a quarantined shard: shard=%d err=%v", rs[0].Shard, rs[0].Err)
	}
	if deadCalls != callsBefore {
		t.Fatal("quarantine did not skip the dead shard")
	}
	mu.Lock()
	defer mu.Unlock()
	if got := transitions[0]; len(got) != 2 || got[1] != ShardQuarantined {
		t.Fatalf("shard 0 transitions = %v, want degraded then quarantined", got)
	}
	if len(transitions[1]) != 0 {
		t.Fatalf("healthy shard 1 moved: %v", transitions[1])
	}
}

// TestScatterPartialWhenAllRoutesFail checks the typed partial outcome: no
// fabricated values, every missing partition listed with its error.
func TestScatterPartialWhenAllRoutesFail(t *testing.T) {
	d := testDispatcher(2, HealthConfig{}, nil)
	results := d.scatter(context.Background(), parts(2), 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			if part.Index == 1 {
				return nil, errors.New("disk on fire")
			}
			return answer("ok"), nil
		})
	if results[0].Err != nil || results[0].Value.ShardID != "ok" {
		t.Fatalf("partition 0: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Value != nil {
		t.Fatalf("partition 1 fabricated a value: %+v", results[1])
	}
	pe := partial(results)
	if pe == nil {
		t.Fatal("no PartialError for a failed partition")
	}
	if len(pe.Missing) != 1 || pe.Missing[0] != 1 {
		t.Fatalf("missing = %v", pe.Missing)
	}
	if pe.Errs[1] == nil {
		t.Fatal("missing partition has no error")
	}
	var target *PartialError
	if !errors.As(error(pe), &target) {
		t.Fatal("PartialError not error-As-able")
	}
}

// TestScatterNoRerouteStopsImmediately checks query-level errors neither
// reroute nor count against the shard's health.
func TestScatterNoRerouteStopsImmediately(t *testing.T) {
	d := testDispatcher(3, oneStrike(), nil)
	calls := 0
	bad := errors.New("unknown model")
	results := d.scatter(context.Background(), parts(3)[:1], 0,
		func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
			calls++
			return nil, NoReroute(bad)
		})
	if calls != 1 {
		t.Fatalf("query-level error was retried %d times", calls)
	}
	if !errors.Is(results[0].Err, bad) {
		t.Fatalf("err = %v", results[0].Err)
	}
	if s, n := d.health.State(0), d.health.Transitions(0); s != ShardHealthy || n != 0 {
		t.Fatalf("query-level error charged shard 0: state %s after %d transitions", s, n)
	}
}

// TestScatterAllQuarantined checks the explicit ErrNoShardAvailable outcome
// when no replica takes traffic, and that it is a 503 to the client.
func TestScatterAllQuarantined(t *testing.T) {
	d := testDispatcher(2, oneStrike(), nil)
	calls := 0
	fail := func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		calls++
		return nil, errors.New("down")
	}
	d.scatter(context.Background(), parts(2)[:1], 0, fail) // one failure each: both degraded
	d.scatter(context.Background(), parts(2)[:1], 0, fail) // a second each: both quarantined
	calls = 0
	results := d.scatter(context.Background(), parts(2)[:1], 0, fail)
	if !errors.Is(results[0].Err, ErrNoShardAvailable) {
		t.Fatalf("err = %v, want ErrNoShardAvailable", results[0].Err)
	}
	if calls != 0 {
		t.Fatalf("%d calls reached quarantined shards", calls)
	}
	if code := statusFor(results[0].Err); code != http.StatusServiceUnavailable {
		t.Fatalf("no shard available maps to HTTP %d, want 503", code)
	}
}
