package harness

import (
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which is ascending: the smallest sample with at least p% of the
// sample at or below it, index ceil(n*p/100)-1. An empty sample is 0. Every
// BENCH_*.json and CHAOS_report.json figure is taken by this rule — the one
// the router's hedge trigger uses for its P95.
func Percentile(sorted []time.Duration, p int) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[min(max((n*p+99)/100-1, 0), n-1)]
}

// Summary is the latency shape of one sample.
type Summary struct {
	Mean, P50, P95, P99 time.Duration
}

// Summarize sorts a copy of lats and takes its mean and percentiles.
func Summarize(lats []time.Duration) Summary {
	if len(lats) == 0 {
		return Summary{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	return Summary{
		Mean: sum / time.Duration(len(sorted)),
		P50:  Percentile(sorted, 50),
		P95:  Percentile(sorted, 95),
		P99:  Percentile(sorted, 99),
	}
}
