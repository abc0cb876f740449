package obs

import (
	"fmt"
	"runtime/metrics"
	"strconv"
	"time"
)

// Per-query resource attribution.
//
// Latency alone says a P99 spike happened; it cannot say what the query
// COST. Attribution extends every pipeline stage with the three resources
// the paper's overhead argument is really about: CPU time burned on the
// host, bytes and objects allocated on the heap, and bytes moved across the
// offload boundary. The measurements ride on the stage brackets the tracer
// already owns and surface in QueryResult, /debug/queries and the Chrome
// trace export — so a single trace answers both "where did the time
// go" and "what did it consume".
//
// Measurement model: CPU time is the process's rusage delta and the
// allocation counters are the runtime's monotonic heap-alloc totals sampled
// via runtime/metrics. Both are process-wide — a stage's kernel workers run
// on other threads than the goroutine that brackets it, so a per-thread
// reading would miss them — and concurrent queries bleed into each other's
// numbers: the attribution is honest about being a sample, not a ledger,
// which is all the advisor's regime detection needs.

// Names of the runtime/metrics samples CostSample reads. Batched into one
// metrics.Read call so a stage bracket costs two reads total.
var costSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// CostSample is a point-in-time reading of the monotonic resource counters
// attribution is derived from. Subtract two samples to get a StageCost.
type CostSample struct {
	// CPU is the process's cumulative user+system CPU time.
	CPU time.Duration
	// AllocBytes is the process's cumulative heap-allocated bytes.
	AllocBytes uint64
	// AllocObjects is the process's cumulative heap-allocated objects.
	AllocObjects uint64
}

// ReadCostSample samples the counters. Cheap enough for per-stage brackets:
// one batched runtime/metrics read plus one getrusage syscall.
func ReadCostSample() CostSample {
	samples := make([]metrics.Sample, len(costSampleNames))
	for i, n := range costSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := CostSample{CPU: processCPUTime()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.AllocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.AllocObjects = samples[1].Value.Uint64()
	}
	return s
}

// Sub returns the resource cost between an earlier sample and this one.
// Counter wrap (impossible in practice) clamps to zero rather than
// producing absurd deltas.
func (s CostSample) Sub(prev CostSample) StageCost {
	c := StageCost{}
	if s.CPU > prev.CPU {
		c.CPUTime = s.CPU - prev.CPU
	}
	if s.AllocBytes > prev.AllocBytes {
		c.AllocBytes = s.AllocBytes - prev.AllocBytes
	}
	if s.AllocObjects > prev.AllocObjects {
		c.AllocObjects = s.AllocObjects - prev.AllocObjects
	}
	return c
}

// StageCost is the measured resource consumption of one pipeline stage.
type StageCost struct {
	// Stage is the Fig. 11 stage name the cost belongs to.
	Stage string `json:"stage"`
	// CPUTime is the process's CPU time (user+system) during the stage.
	CPUTime time.Duration `json:"cpu_ns"`
	// AllocBytes / AllocObjects are heap allocations during the stage
	// (process-global sample; concurrent queries share the counter).
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// BytesMoved is the simulated transfer volume charged to the stage
	// (inbound rows+blob or outbound predictions); zero for pure-compute
	// stages.
	BytesMoved int64 `json:"bytes_moved,omitempty"`
}

// Attribution is a query's full per-stage resource breakdown, in pipeline
// stage order.
type Attribution []StageCost

// Total sums the per-stage costs.
func (a Attribution) Total() StageCost {
	t := StageCost{Stage: "total"}
	for _, c := range a {
		t.CPUTime += c.CPUTime
		t.AllocBytes += c.AllocBytes
		t.AllocObjects += c.AllocObjects
		t.BytesMoved += c.BytesMoved
	}
	return t
}

// args renders one stage's cost as Chrome trace-event args.
func (c StageCost) args() map[string]string {
	m := map[string]string{
		"cpu_us":        fmt.Sprintf("%.1f", float64(c.CPUTime.Nanoseconds())/1e3),
		"alloc_bytes":   strconv.FormatUint(c.AllocBytes, 10),
		"alloc_objects": strconv.FormatUint(c.AllocObjects, 10),
	}
	if c.BytesMoved != 0 {
		m["bytes_moved"] = strconv.FormatInt(c.BytesMoved, 10)
	}
	return m
}
