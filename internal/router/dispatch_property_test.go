package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// mix is splitmix64: one reproducible draw per (seed, scatter, partition,
// shard) without sharing a generator between goroutines.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestDispatcherPairsEveryAcquireWithOneSettle is the pairing property: a
// few thousand seeded random scatters over 2-5 shards — successes,
// rerouteable failures, whole-shard outages that quarantine and rejoin
// through the trickle, whole-tier outages that leave no shard to take a
// partition, query-level errors and caller cancellation — must leave no
// shard with an attempt in flight.
func TestDispatcherPairsEveryAcquireWithOneSettle(t *testing.T) {
	const (
		seed       = 20260930
		scatters   = 750 // per shard count
		workers    = 8
		epochLen   = 40 // scatters a shard outage lasts
		probeEvery = 20
	)
	var rerouted, noShard, canceled atomic.Int64
	entered := make(map[ShardState]int) // health transitions, by the state entered
	for n := 2; n <= 5; n++ {
		clock := newTestClock()
		var qmu sync.Mutex
		health := NewHealthManager(n, HealthConfig{
			FailThreshold: 2, QuarantineThreshold: 2, PassThreshold: 1,
			RejoinProbes: 1, RejoinTrickle: 2, TrickleConcurrency: 1,
			QuarantineBackoff: time.Second, MaxBackoff: 4 * time.Second,
			now: clock.now,
		}, nil, nil, func(_ int, s ShardState) {
			qmu.Lock()
			entered[s]++
			qmu.Unlock()
		})
		d := &dispatcher{shards: n, health: health, metrics: obs.NewRouterMetrics(obs.NewRegistry())}

		// behave decides one shard call from the draw alone.
		behave := func(id int) ShardFunc {
			return func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
				epoch := uint64(seed+n)<<32 | uint64(id/epochLen)<<8
				if mix(epoch|0xff)%8 == 0 {
					// Every shard is down: they quarantine, and until they
					// rejoin no shard is left to take a partition.
					return nil, errors.New("tier down this epoch")
				}
				if mix(epoch|uint64(shard))%8 == 0 {
					return nil, errors.New("shard down this epoch")
				}
				draw := mix(uint64(seed+n)<<40 | uint64(id)<<16 | uint64(part.Index)<<8 | uint64(shard))
				same := &Result{Predictions: []int{part.Index}}
				switch r := draw % 1000; {
				case r < 900:
					return same, nil
				case r < 910: // a straggler that honors its cancel
					select {
					case <-time.After(8 * time.Millisecond):
						return same, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				case r < 980:
					return nil, errors.New("shard fault")
				default:
					return nil, NoReroute(errors.New("bad query"))
				}
			}
		}

		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					id := int(next.Add(1))
					if id > scatters {
						return
					}
					if id%probeEvery == 0 {
						// Let quarantined shards past their dwell and into
						// the rejoin trickle.
						clock.advance(10 * time.Second)
						for shard := 0; shard < n; shard++ {
							health.NoteProbe(shard, nil)
						}
					}
					ctx, cancel := context.WithCancel(context.Background())
					switch mix(uint64(seed+n)<<32|uint64(id)) % 20 {
					case 0:
						cancel() // the caller is already gone
					case 1:
						time.AfterFunc(time.Millisecond, cancel) // or leaves mid-flight
					}
					width := 1 + int(mix(uint64(id))%uint64(n))
					results := d.scatter(ctx, parts(n)[:width], id%n, behave(id))
					cancel()
					for _, r := range results {
						rerouted.Add(int64(r.Reroutes))
						switch {
						case r.Err == nil && r.Value == nil:
							t.Errorf("scatter %d partition %d: no error and no value", id, r.Part.Index)
						case errors.Is(r.Err, ErrNoShardAvailable):
							noShard.Add(1)
						case errors.Is(r.Err, context.Canceled):
							canceled.Add(1)
						}
					}
				}
			}()
		}
		wg.Wait()

		for shard := 0; shard < n; shard++ {
			if got := health.Snapshot(shard).InFlight; got != 0 {
				t.Errorf("%d shards: shard %d still has %d attempts in flight", n, shard, got)
			}
		}
	}

	// The run must have reached the paths it claims to cover.
	if rerouted.Load() == 0 || noShard.Load() == 0 || canceled.Load() == 0 ||
		entered[ShardQuarantined] == 0 || entered[ShardRejoining] == 0 {
		t.Errorf("thin coverage: %d reroutes, %d no-shard partitions, %d canceled, transitions into %v",
			rerouted.Load(), noShard.Load(), canceled.Load(), entered)
	}
}
