package harness

import (
	"sort"
	"time"

	"accelscore/internal/obs"
)

// Summary is the latency shape of one sample.
type Summary struct {
	Mean, P50, P95, P99 time.Duration
}

// Summarize sorts a copy of lats and takes its mean and its nearest-rank
// percentiles (obs.Percentile).
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
		P50:  obs.Percentile(sorted, 50),
		P95:  obs.Percentile(sorted, 95),
		P99:  obs.Percentile(sorted, 99),
	}
}
