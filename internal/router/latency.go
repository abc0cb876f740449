// Per-shard latency tracking for the adaptive hedge trigger. Hedging fires
// when a sub-query outlives the shard's OWN recent P95 — a measured,
// shard-local threshold (Sen et al.'s "drive tuning from latency
// distributions, not static knobs") — so a uniformly slow tier doesn't
// hedge at all while a single straggler hedges immediately.
package router

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// latencyRing is how many recent successful sub-query latencies each shard
// retains for the percentile estimate.
const latencyRing = 64

// latencyTracker keeps a per-shard ring of recent successful sub-query
// latencies.
type latencyTracker struct {
	mu    sync.Mutex
	rings [][]time.Duration
	next  []int
	n     []int
}

func newLatencyTracker(shards int) *latencyTracker {
	t := &latencyTracker{
		rings: make([][]time.Duration, shards),
		next:  make([]int, shards),
		n:     make([]int, shards),
	}
	for i := range t.rings {
		t.rings[i] = make([]time.Duration, latencyRing)
	}
	return t
}

func (t *latencyTracker) note(shard int, d time.Duration) {
	t.mu.Lock()
	t.rings[shard][t.next[shard]] = d
	t.next[shard] = (t.next[shard] + 1) % latencyRing
	if t.n[shard] < latencyRing {
		t.n[shard]++
	}
	t.mu.Unlock()
}

// p95 returns the shard's P95 recent latency, or 0 while fewer than
// minSamples observations exist (hedging stays off until the estimate is
// grounded).
func (t *latencyTracker) p95(shard, minSamples int) time.Duration {
	t.mu.Lock()
	n := t.n[shard]
	if n == 0 || n < minSamples {
		t.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, t.rings[shard][:n])
	t.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (n*95+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// compareResults is the hedge pair verifier: when a primary and its hedge
// BOTH complete, their results must be bit-identical — predictions,
// ordinals, class counts, and row accounting. Any divergence is a
// correctness event that fails the query loudly (the dispatcher wraps it
// NoReroute), never a silent pick-one.
func compareResults(a, b *Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("hedge pair with a missing result")
	}
	if len(a.Predictions) != len(b.Predictions) {
		return fmt.Errorf("prediction count %d vs %d", len(a.Predictions), len(b.Predictions))
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			return fmt.Errorf("row %d: prediction %d vs %d", i, a.Predictions[i], b.Predictions[i])
		}
	}
	if len(a.ScoredRows) != len(b.ScoredRows) {
		return fmt.Errorf("ordinal count %d vs %d", len(a.ScoredRows), len(b.ScoredRows))
	}
	for i := range a.ScoredRows {
		if a.ScoredRows[i] != b.ScoredRows[i] {
			return fmt.Errorf("ordinal %d: row %d vs %d", i, a.ScoredRows[i], b.ScoredRows[i])
		}
	}
	if len(a.ClassCounts) != len(b.ClassCounts) {
		return fmt.Errorf("class-count length %d vs %d", len(a.ClassCounts), len(b.ClassCounts))
	}
	for i := range a.ClassCounts {
		if a.ClassCounts[i] != b.ClassCounts[i] {
			return fmt.Errorf("class %d: count %d vs %d", i, a.ClassCounts[i], b.ClassCounts[i])
		}
	}
	if a.RowsScored != b.RowsScored {
		return fmt.Errorf("rows scored %d vs %d", a.RowsScored, b.RowsScored)
	}
	return nil
}
