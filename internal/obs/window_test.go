package obs

import (
	"slices"
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

// TestLatencyWindowNearestRankAndMean feeds a skewed sample, where the two
// rules part: the window's Mean is the arithmetic mean, not the
// nearest-rank median Percentile takes of the same sample.
func TestLatencyWindowNearestRankAndMean(t *testing.T) {
	sample := []time.Duration{16, 1, 1, 1, 1}
	var w LatencyWindow
	for _, d := range sample {
		w.Observe(d)
	}
	if m := w.Mean(1); m != 4 {
		t.Errorf("Mean = %v, want 4", m)
	}
	slices.Sort(sample)
	if p50 := Percentile(sample, 50); p50 != 1 {
		t.Errorf("P50 = %v, want 1", p50)
	}
}

func TestLatencyWindowFloor(t *testing.T) {
	var w LatencyWindow
	if w.Mean(0) != 0 {
		t.Fatal("an empty window must read 0 whatever the floor")
	}
	for i := 0; i < 7; i++ {
		w.Observe(time.Millisecond)
	}
	if w.Mean(8) != 0 {
		t.Fatal("7 samples under a floor of 8 must read 0")
	}
	w.Observe(time.Millisecond)
	if w.Mean(8) != time.Millisecond {
		t.Fatalf("8 samples at the floor: mean %v, want 1ms", w.Mean(8))
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
	// Mean of 1..64 ms is 32.5 ms: one surviving 1s sample would add ~16 ms.
	if got := w.Mean(windowSize); got != 32500*time.Microsecond {
		t.Errorf("mean after wrap-around = %v, want 32.5ms (the evicted 1s samples are gone)", got)
	}
	// One more evicts the oldest survivor (1 ms): 2..64 ms and 100 ms sum to
	// 2179 ms.
	w.Observe(100 * time.Millisecond)
	if got, want := w.Mean(windowSize), 2179*time.Millisecond/windowSize; got != want {
		t.Errorf("mean after one more wrap = %v, want %v", got, want)
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
				if m := w.Mean(1); m < time.Millisecond || m > 8*time.Millisecond {
					t.Errorf("mean %v outside the observed range", m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Mean(windowSize); got == 0 {
		t.Fatal("a full window read as empty")
	}
}
