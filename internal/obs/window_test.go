package obs

import (
	"sync"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	// sample(n) is 1ms..n ms, so the k-th smallest sample is k ms.
	sample := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	for _, tc := range []struct{ n, p, rank int }{
		{1, 50, 1}, {1, 95, 1}, {1, 99, 1},
		{8, 50, 4}, {8, 95, 8}, {8, 99, 8},
		{10, 50, 5}, {10, 95, 10}, {10, 99, 10},
		{100, 50, 50}, {100, 95, 95}, {100, 99, 99},
	} {
		want := time.Duration(tc.rank) * time.Millisecond
		if got := Percentile(sample(tc.n), tc.p); got != want {
			t.Errorf("P%d of %d samples = %v, want the rank-%d sample %v", tc.p, tc.n, got, tc.rank, want)
		}
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("P99 of nothing = %v, want 0", got)
	}
}

func TestLatencyWindowNearestRankAndMean(t *testing.T) {
	var w LatencyWindow
	for _, d := range []time.Duration{5, 1, 4, 2, 3} {
		w.Observe(d)
	}
	if p50, p95, p99 := w.Quantile(50, 1), w.Quantile(95, 1), w.Quantile(99, 1); p50 != 3 || p95 != 5 || p99 != 5 {
		t.Errorf("P50/P95/P99 = %v/%v/%v, want 3/5/5", p50, p95, p99)
	}
	if m := w.Mean(1); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
}

func TestLatencyWindowFloor(t *testing.T) {
	var w LatencyWindow
	if w.Mean(0) != 0 || w.Quantile(95, 0) != 0 {
		t.Fatal("an empty window must read 0 whatever the floor")
	}
	for i := 0; i < 7; i++ {
		w.Observe(time.Millisecond)
	}
	if w.Mean(8) != 0 || w.Quantile(95, 8) != 0 {
		t.Fatal("7 samples under a floor of 8 must read 0")
	}
	w.Observe(time.Millisecond)
	if w.Mean(8) != time.Millisecond || w.Quantile(95, 8) != time.Millisecond {
		t.Fatalf("8 samples at the floor: mean %v, P95 %v, want 1ms", w.Mean(8), w.Quantile(95, 8))
	}
}

func TestLatencyWindowWrapsAround(t *testing.T) {
	var w LatencyWindow
	// 64 slow samples, then 64 fast ones: only the fast ones may remain.
	for i := 0; i < windowSize; i++ {
		w.Observe(time.Second)
	}
	for i := 1; i <= windowSize; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := w.Quantile(100, windowSize); got != windowSize*time.Millisecond {
		t.Errorf("max after wrap-around = %v, want %v (the evicted 1s samples are gone)", got, windowSize*time.Millisecond)
	}
	if got := w.Quantile(50, 1); got != 32*time.Millisecond {
		t.Errorf("P50 after wrap-around = %v, want 32ms", got)
	}
	// Mean of 1..64 ms is 32.5 ms.
	if got := w.Mean(1); got != 32500*time.Microsecond {
		t.Errorf("mean after wrap-around = %v, want 32.5ms", got)
	}
	// One more evicts the oldest survivor (1 ms).
	w.Observe(100 * time.Millisecond)
	if got := w.Quantile(1, 1); got != 2*time.Millisecond {
		t.Errorf("min after one more wrap = %v, want 2ms", got)
	}
}

func TestLatencyWindowConcurrent(t *testing.T) {
	var w LatencyWindow
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(time.Duration(g+1) * time.Millisecond)
				if q := w.Quantile(95, 1); q < time.Millisecond || q > 8*time.Millisecond {
					t.Errorf("P95 %v outside the observed range", q)
					return
				}
				if m := w.Mean(1); m < time.Millisecond || m > 8*time.Millisecond {
					t.Errorf("mean %v outside the observed range", m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Quantile(50, windowSize); got == 0 {
		t.Fatal("a full window read as empty")
	}
}
