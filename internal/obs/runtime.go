package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime health collector: a background sampler that publishes the Go
// runtime's vital signs — GC activity, heap size, goroutine count, scheduler
// latency — as gauges and counters on the shared registry. Query-level
// attribution says what one query cost; these series say what the PROCESS is
// doing between queries, which is where GC pauses and scheduler backlog (the
// silent killers of tail latency) show up first.

// Metric names the runtime collector publishes. All labels are bounded: the
// only labeled family is the scheduler-latency quantile gauge with a fixed
// three-value quantile set.
const (
	// MetricRuntimeGoroutines gauges runtime.NumGoroutine.
	MetricRuntimeGoroutines = "accelscore_runtime_goroutines"
	// MetricRuntimeHeapAllocBytes gauges live heap bytes (MemStats.HeapAlloc).
	MetricRuntimeHeapAllocBytes = "accelscore_runtime_heap_alloc_bytes"
	// MetricRuntimeHeapSysBytes gauges heap bytes obtained from the OS.
	MetricRuntimeHeapSysBytes = "accelscore_runtime_heap_sys_bytes"
	// MetricRuntimeHeapObjects gauges live heap objects.
	MetricRuntimeHeapObjects = "accelscore_runtime_heap_objects"
	// MetricRuntimeGCPauseSecondsTotal accumulates stop-the-world pause time.
	MetricRuntimeGCPauseSecondsTotal = "accelscore_runtime_gc_pause_seconds_total"
	// MetricRuntimeGCCyclesTotal accumulates completed GC cycles.
	MetricRuntimeGCCyclesTotal = "accelscore_runtime_gc_cycles_total"
	// MetricRuntimeSchedLatencySeconds gauges approximate scheduler-latency
	// quantiles {quantile="0.5"|"0.9"|"0.99"} over the last sampling interval.
	MetricRuntimeSchedLatencySeconds = "accelscore_runtime_sched_latency_seconds"
)

// schedLatencyName is the runtime/metrics histogram the scheduler-latency
// quantiles derive from.
const schedLatencyName = "/sched/latencies:seconds"

// schedQuantiles is the fixed (bounded) quantile label set.
var schedQuantiles = []float64{0.5, 0.9, 0.99}

// DefaultRuntimeSampleInterval is the period a serving process samples its
// runtime at.
const DefaultRuntimeSampleInterval = 5 * time.Second

// RuntimeCollector periodically samples the Go runtime into a Registry.
// Start it once per process (StartRuntimeCollector); Stop it on shutdown.
type RuntimeCollector struct {
	reg *Registry

	mu           sync.Mutex
	lastPauseNs  uint64
	lastNumGC    uint32
	lastSched    *metrics.Float64Histogram
	samplesCount uint64
	schedSamples []metrics.Sample
	stop         chan struct{}
	done         chan struct{}
}

// NewRuntimeCollector builds a collector publishing into reg that samples
// only when SampleNow is called, for deterministic tests.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	return &RuntimeCollector{
		reg:          reg,
		schedSamples: []metrics.Sample{{Name: schedLatencyName}},
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// StartRuntimeCollector builds a collector, samples once (so a scrape
// immediately after startup sees populated gauges), then samples every
// interval until Stop.
func StartRuntimeCollector(reg *Registry, interval time.Duration) *RuntimeCollector {
	c := NewRuntimeCollector(reg)
	c.SampleNow()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.SampleNow()
			}
		}
	}()
	return c
}

// Stop halts a started collector's sampler and waits for it to exit. Call
// it once; it is safe on a nil collector.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// SampleNow takes one sample synchronously: gauges are set to current
// values, cumulative pause/cycle counters advance by the delta since the
// previous sample, and scheduler-latency quantiles are computed over the
// histogram delta of the last interval (full history on the first sample).
func (c *RuntimeCollector) SampleNow() {
	if c == nil || c.reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	c.reg.Gauge(MetricRuntimeGoroutines, "Live goroutines.").
		Set(float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.reg.Gauge(MetricRuntimeHeapAllocBytes, "Live heap bytes.").Set(float64(ms.HeapAlloc))
	c.reg.Gauge(MetricRuntimeHeapSysBytes, "Heap bytes obtained from the OS.").Set(float64(ms.HeapSys))
	c.reg.Gauge(MetricRuntimeHeapObjects, "Live heap objects.").Set(float64(ms.HeapObjects))

	if ms.PauseTotalNs >= c.lastPauseNs {
		delta := ms.PauseTotalNs - c.lastPauseNs
		c.reg.Counter(MetricRuntimeGCPauseSecondsTotal, "Cumulative GC stop-the-world pause time.").
			Add(float64(delta) / 1e9)
	}
	c.lastPauseNs = ms.PauseTotalNs
	if ms.NumGC >= c.lastNumGC {
		c.reg.Counter(MetricRuntimeGCCyclesTotal, "Completed GC cycles.").
			Add(float64(ms.NumGC - c.lastNumGC))
	}
	c.lastNumGC = ms.NumGC

	metrics.Read(c.schedSamples)
	if c.schedSamples[0].Value.Kind() == metrics.KindFloat64Histogram {
		cur := c.schedSamples[0].Value.Float64Histogram()
		for _, q := range schedQuantiles {
			v := histQuantileDelta(cur, c.lastSched, q)
			c.reg.Gauge(MetricRuntimeSchedLatencySeconds,
				"Approximate goroutine scheduling latency quantiles over the last sample interval.",
				"quantile", formatFloat(q)).Set(v)
		}
		c.lastSched = cloneFloat64Histogram(cur)
	}
	c.samplesCount++
}

// cloneFloat64Histogram deep-copies a runtime/metrics histogram so the next
// sample can delta against it (metrics.Read may reuse the buffers).
func cloneFloat64Histogram(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	if h == nil {
		return nil
	}
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// histQuantileDelta computes an approximate quantile of cur minus prev
// (element-wise count delta; prev nil means cur as-is), interpolating at the
// upper edge of the bucket where the cumulative share crosses q. Returns 0
// when the delta holds no observations.
func histQuantileDelta(cur, prev *metrics.Float64Histogram, q float64) float64 {
	if cur == nil || len(cur.Counts) == 0 {
		return 0
	}
	deltas := make([]uint64, len(cur.Counts))
	var total uint64
	for i, c := range cur.Counts {
		d := c
		if prev != nil && len(prev.Counts) == len(cur.Counts) && prev.Counts[i] <= c {
			d = c - prev.Counts[i]
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var run uint64
	for i, d := range deltas {
		run += d
		if run > target {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report its upper edge,
			// clamping the open-ended last bucket to its lower edge.
			hi := i + 1
			if hi >= len(cur.Buckets) {
				hi = len(cur.Buckets) - 1
			}
			v := cur.Buckets[hi]
			if v > 1e300 || v != v { // +Inf upper edge: fall back to lower
				v = cur.Buckets[i]
			}
			return clampFinite(v)
		}
	}
	return clampFinite(cur.Buckets[len(cur.Buckets)-1])
}

// clampFinite maps the histogram's ±Inf edge sentinels to 0 so gauges stay
// finite.
func clampFinite(v float64) float64 {
	if v != v || v > 1e300 || v < 0 {
		return 0
	}
	return v
}
