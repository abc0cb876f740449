package sched

import (
	"testing"
	"time"
)

// linearService models a perfectly divisible workload: service time strictly
// proportional to records.
func linearService(perRecord time.Duration) func(int64) (time.Duration, error) {
	return func(records int64) (time.Duration, error) {
		return time.Duration(records) * perRecord, nil
	}
}

// amdahlService adds an unsplittable fixed cost (the paper's process-invoke
// overhead) on top of the linear part.
func amdahlService(fixed, perRecord time.Duration) func(int64) (time.Duration, error) {
	return func(records int64) (time.Duration, error) {
		return fixed + time.Duration(records)*perRecord, nil
	}
}

func TestPartitionRecordsTiles(t *testing.T) {
	for _, tc := range []struct {
		n     int
		total int64
	}{{1, 7}, {3, 10}, {4, 1000}, {5, 3}} {
		var sum int64
		for k := 0; k < tc.n; k++ {
			r := PartitionRecords(k, tc.n, tc.total)
			if r < 0 {
				t.Fatalf("PartitionRecords(%d,%d,%d) = %d", k, tc.n, tc.total, r)
			}
			sum += r
		}
		if sum != tc.total {
			t.Fatalf("n=%d total=%d: partitions sum to %d", tc.n, tc.total, sum)
		}
	}
}

// TestScatterLinearSpeedup checks a divisible workload with no overhead
// scales ~linearly: 4 shards ≈ 4x throughput.
func TestScatterLinearSpeedup(t *testing.T) {
	cfg := ScatterConfig{
		Queries: 50,
		Records: 100_000,
		Service: linearService(10 * time.Microsecond),
	}
	pts, err := ScatterCurve(cfg, []int{4, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Shards != 1 || pts[2].Shards != 4 {
		t.Fatalf("curve not sorted ascending: %+v", pts)
	}
	if s := pts[0].Speedup; s != 1 {
		t.Fatalf("1-shard speedup = %v", s)
	}
	if s := pts[2].Speedup; s < 3.9 || s > 4.1 {
		t.Fatalf("4-shard speedup = %v, want ~4 for a divisible workload", s)
	}
	if pts[2].MeanLatency >= pts[0].MeanLatency {
		t.Fatal("scatter did not cut per-query latency on a divisible workload")
	}
}

// TestScatterAmdahlCeiling checks the unsplittable fixed cost caps speedup
// below linear, the paper's process-overhead argument at tier scale.
func TestScatterAmdahlCeiling(t *testing.T) {
	// fixed = 250ms, linear = 1s at 100k records: serial fraction 0.2
	// caps 4-shard speedup at 1.25/0.5 = 2.5.
	cfg := ScatterConfig{
		Queries: 50,
		Records: 100_000,
		Service: amdahlService(250*time.Millisecond, 10*time.Microsecond),
	}
	pts, err := ScatterCurve(cfg, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	got := pts[1].Speedup
	if got < 2.4 || got > 2.6 {
		t.Fatalf("4-shard Amdahl speedup = %v, want ~2.5", got)
	}
}

// TestScatterStragglerGap checks uneven partitions surface as a straggler
// gap equal to the service-time spread.
func TestScatterStragglerGap(t *testing.T) {
	// 10 records over 3 shards: partitions hold 4, 3, 3. One client at a
	// time, so every scatter starts on idle shards and the gap is exactly
	// the service-time spread.
	m, err := SimulateScatter(ScatterConfig{
		Shards:      3,
		Queries:     10,
		Concurrency: 1,
		Records:     10,
		Service:     linearService(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanStragglerGap != time.Millisecond {
		t.Fatalf("straggler gap = %v, want 1ms (one extra record)", m.MeanStragglerGap)
	}
	if m.ShardBusy[0] <= m.ShardBusy[2] {
		t.Fatalf("heavy partition busy %v not above light %v", m.ShardBusy[0], m.ShardBusy[2])
	}
}

// TestScatterOverheadDragsThroughput checks per-sub-query overhead hurts
// wider scatters more (it is paid once per shard).
func TestScatterOverheadDragsThroughput(t *testing.T) {
	base := ScatterConfig{
		Queries:  20,
		Records:  1000,
		Service:  linearService(time.Microsecond),
		Overhead: 5 * time.Millisecond,
	}
	pts, err := ScatterCurve(base, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 1ms of compute split 4 ways cannot outrun 10ms of per-query overhead:
	// the curve must show overhead-bound behavior (speedup well under 4).
	if pts[1].Speedup > 2 {
		t.Fatalf("overhead-bound speedup = %v, want < 2", pts[1].Speedup)
	}
}

func TestScatterValidation(t *testing.T) {
	svc := linearService(time.Microsecond)
	bad := []ScatterConfig{
		{Shards: 0, Queries: 1, Records: 1, Service: svc},
		{Shards: 1, Queries: 0, Records: 1, Service: svc},
		{Shards: 1, Queries: 1, Records: 0, Service: svc},
		{Shards: 1, Queries: 1, Records: 1, Service: nil},
	}
	for i, cfg := range bad {
		if _, err := SimulateScatter(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := ScatterCurve(ScatterConfig{}, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
}
