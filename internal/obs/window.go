package obs

import (
	"sync"
	"time"
)

// windowSize is how many recent latencies a LatencyWindow retains.
const windowSize = 64

// LatencyWindow is the one latency estimator the serving tier decides from:
// the last windowSize successful latencies of one series (the router's
// queries, a device's runs). Observe is O(1); the mean is computed on read.
// Each reader publishes the value it decided with as a gauge, so /metrics
// shows what the decision saw. The zero value is an empty window, safe for
// concurrent use.
type LatencyWindow struct {
	mu   sync.Mutex
	ring [windowSize]time.Duration
	next int
	n    int
}

// Observe records one latency, evicting the oldest once the window is full.
func (w *LatencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.next] = d
	w.next = (w.next + 1) % windowSize
	w.n = min(w.n+1, windowSize)
	w.mu.Unlock()
}

// Mean returns the window's mean latency, or 0 while it holds fewer than
// minSamples observations (or none).
func (w *LatencyWindow) Mean(minSamples int) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 || w.n < minSamples {
		return 0
	}
	var sum time.Duration
	for _, d := range w.ring[:w.n] {
		sum += d
	}
	return sum / time.Duration(w.n)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which is ascending: the smallest sample with at least p% of the
// sample at or below it, index ceil(n*p/100)-1. An empty sample is 0.
// Every BENCH_*.json and CHAOS_report.json figure is taken by this rule.
func Percentile(sorted []time.Duration, p int) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[min(max((n*p+99)/100-1, 0), n-1)]
}
