package obs

import (
	"math"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

// samples reads how many times c has sampled.
func samples(c *RuntimeCollector) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samplesCount
}

func TestRuntimeCollectorSampleNow(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	c.SampleNow()
	c.SampleNow()
	if got := samples(c); got != 2 {
		t.Errorf("samples = %d, want 2", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		MetricRuntimeGoroutines,
		MetricRuntimeHeapAllocBytes,
		MetricRuntimeHeapSysBytes,
		MetricRuntimeHeapObjects,
		MetricRuntimeGCPauseSecondsTotal,
		MetricRuntimeGCCyclesTotal,
		MetricRuntimeSchedLatencySeconds + `{quantile="0.5"}`,
		MetricRuntimeSchedLatencySeconds + `{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if reg.Gauge(MetricRuntimeGoroutines, "").Value() < 1 {
		t.Error("goroutine gauge should be at least 1")
	}
	if reg.Gauge(MetricRuntimeHeapAllocBytes, "").Value() <= 0 {
		t.Error("heap alloc gauge should be positive")
	}
}

func TestRuntimeCollectorStartStop(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, 10*time.Millisecond)
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for samples(c) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if samples(c) < 3 {
		t.Fatalf("collector only took %d samples", samples(c))
	}
}

func TestHistQuantileDelta(t *testing.T) {
	// Synthetic histogram: edges [0, 1ms, 10ms, +Inf], all mass in 1-10ms.
	cur := &metrics.Float64Histogram{
		Counts:  []uint64{0, 100, 0},
		Buckets: []float64{0, 0.001, 0.01, math.Inf(1)},
	}
	if got := histQuantileDelta(cur, nil, 0.5); got != 0.01 {
		t.Errorf("p50 = %g, want 0.01", got)
	}
	// Delta against an identical previous sample has no observations.
	if got := histQuantileDelta(cur, cloneFloat64Histogram(cur), 0.5); got != 0 {
		t.Errorf("empty delta p50 = %g, want 0", got)
	}
	if got := histQuantileDelta(nil, nil, 0.5); got != 0 {
		t.Errorf("nil histogram p50 = %g, want 0", got)
	}
}
