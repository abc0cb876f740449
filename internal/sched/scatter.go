package sched

import (
	"fmt"
	"sort"
	"time"
)

// ScatterConfig parameterizes a scatter-gather scale-out simulation: a
// closed-loop client population issuing queries through a router that
// splits each query into one partition per shard, with per-shard FIFO
// service and a gather barrier. It predicts the scaling the serving tier
// should achieve if the only costs were the calibrated per-shard service
// times plus a fixed router overhead — the curve `loadgen -mode scaleout
// -preset artifact` prints next to its measurements so the gap (stragglers,
// HTTP, merge) is visible.
type ScatterConfig struct {
	// Shards is the replica count (>= 1).
	Shards int
	// Queries is how many queries the closed loop issues.
	Queries int
	// Concurrency is the closed-loop client population (outstanding
	// queries); 0 defaults to Shards, enough to saturate every shard.
	Concurrency int
	// Records is each query's total record count; partitions split it
	// evenly with the remainder spread over the low partitions (the tier's
	// 64-row stripes match that to within one stripe).
	Records int64
	// Service returns the simulated service time for a sub-query scoring
	// records rows on one shard (typically pipeline.Estimate over the
	// bench's model stats and backend).
	Service func(records int64) (time.Duration, error)
	// Overhead is the fixed per-sub-query cost occupying the shard on top
	// of its service time: request parsing, HTTP handling, response
	// serialization. It is paid once per shard per query, so it does NOT
	// shrink as the scatter widens — the tier's analogue of the paper's
	// unamortized invocation overheads.
	Overhead time.Duration
}

// ScatterMetrics aggregates one scatter simulation.
type ScatterMetrics struct {
	Shards   int
	Queries  int
	Makespan time.Duration
	// Throughput is queries per second over the makespan.
	Throughput float64
	// MeanLatency, P50, P99 summarize query response times (scatter to
	// gather).
	MeanLatency, P50, P99 time.Duration
	// MeanStragglerGap and MaxStragglerGap summarize, per query, the gap
	// between its slowest and fastest sub-query finish — the gather
	// barrier's tax.
	MeanStragglerGap, MaxStragglerGap time.Duration
	// ShardBusy is total service time per shard (utilization numerator).
	ShardBusy []time.Duration
}

// PartitionRecords returns how many of total records land in partition k of
// n under an even split: the base share plus one for the low
// partitions that absorb the remainder.
func PartitionRecords(k, n int, total int64) int64 {
	base := total / int64(n)
	if int64(k) < total%int64(n) {
		base++
	}
	return base
}

// SimulateScatter runs the closed-loop scatter-gather model: Concurrency
// clients each issue a query, the router fans one sub-query per shard, each
// shard serves its FIFO queue one sub-query at a time, and the query
// completes when its slowest sub-query finishes (gather barrier). The
// client then immediately issues the next query. Deterministic.
func SimulateScatter(cfg ScatterConfig) (ScatterMetrics, error) {
	if cfg.Shards < 1 {
		return ScatterMetrics{}, fmt.Errorf("sched: scatter needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.Queries < 1 {
		return ScatterMetrics{}, fmt.Errorf("sched: scatter needs >= 1 query, got %d", cfg.Queries)
	}
	if cfg.Records < 1 {
		return ScatterMetrics{}, fmt.Errorf("sched: scatter needs >= 1 record, got %d", cfg.Records)
	}
	if cfg.Service == nil {
		return ScatterMetrics{}, fmt.Errorf("sched: scatter needs a Service function")
	}
	clients := cfg.Concurrency
	if clients <= 0 {
		clients = cfg.Shards
	}

	// Per-partition service times are identical across queries, so compute
	// them once.
	service := make([]time.Duration, cfg.Shards)
	for k := range service {
		rec := PartitionRecords(k, cfg.Shards, cfg.Records)
		s, err := cfg.Service(rec)
		if err != nil {
			return ScatterMetrics{}, fmt.Errorf("sched: scatter service for partition %d: %w", k, err)
		}
		if s < 0 {
			return ScatterMetrics{}, fmt.Errorf("sched: negative service time for partition %d", k)
		}
		service[k] = s
	}

	m := ScatterMetrics{
		Shards:    cfg.Shards,
		Queries:   cfg.Queries,
		ShardBusy: make([]time.Duration, cfg.Shards),
	}
	shardFree := make([]time.Duration, cfg.Shards)
	clientFree := make([]time.Duration, clients)
	latencies := make([]time.Duration, 0, cfg.Queries)
	var latSum, gapSum time.Duration

	for q := 0; q < cfg.Queries; q++ {
		// The next query comes from the first client to go idle.
		c := 0
		for i := 1; i < clients; i++ {
			if clientFree[i] < clientFree[c] {
				c = i
			}
		}
		issue := clientFree[c]
		var first, last time.Duration
		for k := 0; k < cfg.Shards; k++ {
			start := issue
			if shardFree[k] > start {
				start = shardFree[k]
			}
			occupancy := service[k] + cfg.Overhead
			finish := start + occupancy
			shardFree[k] = finish
			m.ShardBusy[k] += occupancy
			if k == 0 || finish < first {
				first = finish
			}
			if finish > last {
				last = finish
			}
		}
		gather := last
		gap := last - first
		gapSum += gap
		if gap > m.MaxStragglerGap {
			m.MaxStragglerGap = gap
		}
		lat := gather - issue
		latencies = append(latencies, lat)
		latSum += lat
		clientFree[c] = gather
		if gather > m.Makespan {
			m.Makespan = gather
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := len(latencies)
	m.MeanLatency = latSum / time.Duration(n)
	m.P50 = latencies[n/2]
	m.P99 = latencies[(n*99)/100]
	m.MeanStragglerGap = gapSum / time.Duration(n)
	if m.Makespan > 0 {
		m.Throughput = float64(cfg.Queries) / m.Makespan.Seconds()
	}
	return m, nil
}

// ScatterPoint is one shard count on a predicted scaling curve.
type ScatterPoint struct {
	Shards int
	// Throughput is predicted queries/second at this width.
	Throughput float64
	// Speedup is Throughput relative to the 1-shard point.
	Speedup float64
	// MeanLatency and MeanStragglerGap carry the latency side of the
	// trade: wider scatter means lower per-query latency but a growing
	// barrier tax.
	MeanLatency      time.Duration
	MeanStragglerGap time.Duration
}

// ScatterCurve sweeps shard counts under an otherwise fixed config and
// returns the predicted scaling curve, speedups normalized to the first
// point after sorting ascending by shard count (callers pass 1 to anchor at
// single-node).
func ScatterCurve(cfg ScatterConfig, shardCounts []int) ([]ScatterPoint, error) {
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("sched: empty shard-count sweep")
	}
	counts := append([]int(nil), shardCounts...)
	sort.Ints(counts)
	points := make([]ScatterPoint, 0, len(counts))
	for _, n := range counts {
		c := cfg
		c.Shards = n
		m, err := SimulateScatter(c)
		if err != nil {
			return nil, err
		}
		points = append(points, ScatterPoint{
			Shards:           n,
			Throughput:       m.Throughput,
			MeanLatency:      m.MeanLatency,
			MeanStragglerGap: m.MeanStragglerGap,
		})
	}
	base := points[0].Throughput
	for i := range points {
		if base > 0 {
			points[i].Speedup = points[i].Throughput / base
		}
	}
	return points, nil
}
