package obs

import (
	"strconv"
	"time"
)

// Metric names the scale-out router publishes. They live here (next to the
// executor and pipeline metric vocabularies) so dashboards and tests share
// one spelling, and so the router, loadgen, and conformance packages never
// drift apart on label sets.
const (
	// MetricRouterQueriesTotal counts routed queries {outcome="ok"|"error"}.
	// A query some partition of which had no surviving route is an "error".
	MetricRouterQueriesTotal = "accelscore_router_queries_total"
	// MetricRouterScatterWidth is the histogram of scatter fan-out widths
	// (sub-queries issued per routed query).
	MetricRouterScatterWidth = "accelscore_router_scatter_width"
	// MetricRouterStragglerGap is the histogram of the gather barrier's
	// straggler gap: slowest sub-query latency minus fastest, seconds. The
	// gap is the scale-out tax the paper's single-node model never pays.
	MetricRouterStragglerGap = "accelscore_router_straggler_gap_seconds"
	// MetricRouterShardLatency is the per-shard sub-query latency
	// histogram {shard}.
	MetricRouterShardLatency = "accelscore_router_shard_latency_seconds"
	// MetricRouterReroutesTotal counts partitions moved off their preferred
	// shard {shard} (labelled by the shard routed AWAY from).
	MetricRouterReroutesTotal = "accelscore_router_reroutes_total"
	// MetricRouterWarmTotal counts model-cache warm calls fanned out to
	// shards {status="hit"|"miss"|"nocache"|"error"}.
	MetricRouterWarmTotal = "accelscore_router_warm_total"
	// MetricRouterShardState gauges each shard's health state {shard}:
	// 0 healthy, 1 degraded, 2 quarantined, 3 rejoining.
	MetricRouterShardState = "accelscore_router_shard_state"
	// MetricRouterAdmissionShedTotal counts queries refused at admission:
	// the router was at its in-flight bound.
	MetricRouterAdmissionShedTotal = "accelscore_router_admission_shed_total"
	// MetricRouterWireBytesTotal counts /score reply bytes (frames) the
	// router read from its shards: what the gather moves.
	MetricRouterWireBytesTotal = "accelscore_router_wire_bytes_total"
	// MetricRouterWireDecode is the histogram of the time to turn one
	// /score reply into a result (CRC and ordinal checks included), seconds.
	MetricRouterWireDecode = "accelscore_router_wire_decode_seconds"
)

// scatterWidthBuckets resolves fan-out widths 1..64; wider tiers saturate
// the last bucket.
var scatterWidthBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// stragglerBuckets resolves gaps from sub-millisecond HTTP jitter up to
// multi-second shard stalls.
var stragglerBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// wireDecodeBuckets resolves decodes from a 600-byte aggregate frame up to
// a multi-megabyte prediction list.
var wireDecodeBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25,
}

// RouterMetrics publishes the accelscore_router_* family into a registry.
// The zero value (or a nil receiver) is a no-op so the router runs
// unobserved in tests.
type RouterMetrics struct {
	reg *Registry
}

// NewRouterMetrics binds the router metric family to reg (nil reg => no-op).
func NewRouterMetrics(reg *Registry) *RouterMetrics {
	if reg == nil {
		return nil
	}
	return &RouterMetrics{reg: reg}
}

// ObserveQuery records one routed query: its outcome, scatter width, and
// gather straggler gap.
func (m *RouterMetrics) ObserveQuery(outcome string, width int, stragglerGap time.Duration) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter(MetricRouterQueriesTotal, "Routed queries by outcome.", "outcome", outcome).Inc()
	m.reg.Histogram(MetricRouterScatterWidth, "Sub-queries issued per routed query.",
		scatterWidthBuckets).Observe(float64(width))
	m.reg.Histogram(MetricRouterStragglerGap,
		"Gather-barrier straggler gap (slowest minus fastest sub-query), seconds.",
		stragglerBuckets).Observe(stragglerGap.Seconds())
}

// ObserveShard records one sub-query attempt on one shard: its latency and
// how many partitions (0 or 1) it sent on to another shard by failing.
func (m *RouterMetrics) ObserveShard(shard int, latency time.Duration, reroutes int) {
	if m == nil || m.reg == nil {
		return
	}
	s := strconv.Itoa(shard)
	m.reg.Histogram(MetricRouterShardLatency, "Per-shard sub-query latency, seconds.",
		nil, "shard", s).Observe(latency.Seconds())
	if reroutes > 0 {
		m.reg.Counter(MetricRouterReroutesTotal,
			"Partitions rerouted away from a shard.", "shard", s).Add(float64(reroutes))
	}
}

// NoteWarm counts one model-cache warm call outcome.
func (m *RouterMetrics) NoteWarm(status string) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter(MetricRouterWarmTotal, "Model-cache warm calls by status.",
		"status", status).Inc()
}

// SetShardState gauges a shard's health state (0 healthy, 1 degraded,
// 2 quarantined, 3 rejoining).
func (m *RouterMetrics) SetShardState(shard, state int) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Gauge(MetricRouterShardState,
		"Shard health state: 0 healthy, 1 degraded, 2 quarantined, 3 rejoining.",
		"shard", strconv.Itoa(shard)).Set(float64(state))
}

// NoteAdmissionShed counts one query refused at admission.
func (m *RouterMetrics) NoteAdmissionShed() {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter(MetricRouterAdmissionShedTotal,
		"Queries refused at admission: the router was at its in-flight bound.").Inc()
}

// ObserveWire records one decoded /score reply: its size on the wire, and
// how long the decode took.
func (m *RouterMetrics) ObserveWire(bytes int, decode time.Duration) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter(MetricRouterWireBytesTotal, "Bytes of /score replies read from shards.").Add(float64(bytes))
	m.reg.Histogram(MetricRouterWireDecode, "Time to decode one /score reply, seconds.",
		wireDecodeBuckets).Observe(decode.Seconds())
}
