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
// COST. Attribution extends every measured stage with the resources the
// paper's overhead argument is really about: CPU time burned on the host and
// bytes and objects allocated on the heap (the pipeline adds the bytes moved
// across the offload boundary). One bracket, Observer.Stage, takes the
// measurement once and is the stage's one record: its wall span on the trace
// carries the cost (/debug/queries, the Chrome trace export), and the same
// sample feeds the stage series on /metrics.
//
// Measurement model: CPU time is the process's rusage delta and the
// allocation counters are the runtime's monotonic heap-alloc totals sampled
// via runtime/metrics. Both are process-wide — a stage's kernel workers run
// on other threads than the goroutine that brackets it, so a per-thread
// reading would miss them — and concurrent queries bleed into each other's
// numbers: the attribution is honest about being a sample, not a ledger,
// which is all the advisor's regime detection needs.

// Metric names Stage publishes, one series per stage {stage}.
const (
	// MetricStageCPUSeconds is the measured per-stage process-CPU-time
	// histogram, with the query's trace ID as exemplar.
	MetricStageCPUSeconds = "accelscore_stage_cpu_seconds"
	// MetricStageAllocBytesTotal accumulates measured heap-allocated bytes
	// per stage.
	MetricStageAllocBytesTotal = "accelscore_stage_alloc_bytes_total"
	// MetricStageAllocObjectsTotal accumulates measured heap-allocated
	// objects per stage.
	MetricStageAllocObjectsTotal = "accelscore_stage_alloc_objects_total"
)

// Stage runs body as one measured stage of tr's query and returns the
// stage's cost with body's error. It times the wall clock once and samples
// the process's CPU and allocations once, and from that one reading appends
// the stage's wall span, cost attached, to tr and publishes the stage's CPU
// observation (exemplar: tr's ID) and allocation counts. The stage is
// recorded whether or not body fails. On a nil observer body runs
// unmeasured and the cost is zero.
func (o *Observer) Stage(tr *Trace, name string, body func() error) (StageCost, error) {
	if o == nil {
		return StageCost{}, body()
	}
	before := ReadCostSample()
	t0 := time.Now()
	err := body()
	dur := time.Since(t0)
	cost := ReadCostSample().Sub(before)
	cost.Stage = name
	tr.addWall(t0, wallSpan{name: name, dur: dur, cost: cost})
	if reg := o.Registry; reg != nil {
		reg.Histogram(MetricStageCPUSeconds, "Measured per-stage process CPU time (attribution).",
			DefBuckets, "stage", name).ObserveExemplar(cost.CPUTime.Seconds(), tr.ID())
		reg.Counter(MetricStageAllocBytesTotal, "Measured heap bytes allocated per stage (attribution).",
			"stage", name).Add(float64(cost.AllocBytes))
		reg.Counter(MetricStageAllocObjectsTotal, "Measured heap objects allocated per stage (attribution).",
			"stage", name).Add(float64(cost.AllocObjects))
	}
	return cost, err
}

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

// StageCost is the measured resource consumption of one stage.
type StageCost struct {
	// Stage is the name of the stage the cost belongs to; empty on the
	// zero cost of a span that was only timed.
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

// args renders a measured span's cost as Chrome trace-event args. Only
// Stage records a span cost, and a stage moves no bytes: the transfer legs
// are trace attrs.
func (c StageCost) args() map[string]string {
	return map[string]string{
		"cpu_us":        fmt.Sprintf("%.1f", float64(c.CPUTime.Nanoseconds())/1e3),
		"alloc_bytes":   strconv.FormatUint(c.AllocBytes, 10),
		"alloc_objects": strconv.FormatUint(c.AllocObjects, 10),
	}
}
