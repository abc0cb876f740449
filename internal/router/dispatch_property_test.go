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
// shard, attempt kind) without sharing a generator between goroutines.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestDispatcherPairsEveryAcquireWithOneSettle is the pairing property: a
// few thousand seeded random scatters over 2-5 shards — successes,
// rerouteable failures, whole-shard outages that quarantine and rejoin
// through the trickle, query-level errors, caller cancellation, full
// sub-query queues, and hedges that win, lose, diverge or are denied — must
// leave nothing held: no shard in-flight count, no sub-query slot, no queue
// position, and no more hedges launched than the budget ever had.
func TestDispatcherPairsEveryAcquireWithOneSettle(t *testing.T) {
	const (
		seed       = 20260930
		scatters   = 750 // per shard count
		workers    = 8
		fraction   = 0.2
		burst      = 2
		epochLen   = 40 // scatters a shard outage lasts
		probeEvery = 20
	)
	var rerouted, noShard, canceled atomic.Int64
	outcomes := obs.NewRegistry()
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
		adm := newAdmission(&AdmissionConfig{MaxInFlight: 1 << 20, ShardInFlight: 2, ShardQueue: 2}, n, nil)
		d := &dispatcher{
			shards: n, health: health, adm: adm, lat: make([]obs.LatencyWindow, n),
			budget: newHedgeBudget(fraction, burst), metrics: obs.NewRouterMetrics(outcomes),
		}
		for shard := 0; shard < n; shard++ {
			for i := 0; i < hedgeMinSamples; i++ {
				d.lat[shard].Observe(time.Millisecond) // trigger = the hedgeMinDelay floor
			}
		}

		// behave decides one shard call from the draw alone.
		behave := func(id int) ShardFunc {
			return func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
				if mix(uint64(seed+n)<<32|uint64(id/epochLen)<<8|uint64(shard))%8 == 0 {
					return nil, errors.New("shard down this epoch")
				}
				kind := uint64(0)
				if isHedgeAttempt(ctx) {
					kind = 1
				}
				draw := mix(uint64(seed+n)<<40 | uint64(id)<<16 | uint64(part.Index)<<8 | uint64(shard)<<1 | kind)
				if kind == 1 && draw%3 == 0 {
					time.Sleep(6 * time.Millisecond) // a hedge that loses its race
				}
				same := &Result{Predictions: []int{part.Index}}
				// Stragglers stay under 5% of the answers, or the ring's P95
				// (the hedge trigger) would climb to meet them.
				switch r := draw / 3 % 1000; {
				case r < 880:
					return same, nil
				case r < 890: // a straggler that honors its cancel
					select {
					case <-time.After(8 * time.Millisecond):
						return same, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				case r < 900: // a straggler that does not: the pair completes
					time.Sleep(4 * time.Millisecond)
					return same, nil
				case r < 910: // and one that answers differently
					time.Sleep(4 * time.Millisecond)
					return &Result{Predictions: []int{-1 - shard}}, nil
				case r < 980:
					return nil, errors.New("shard fault")
				default:
					return nil, NoReroute(errors.New("bad query"))
				}
			}
		}

		var next, routed, hedged atomic.Int64
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
					routed.Add(int64(width))
					for _, r := range results {
						if r.Hedged {
							hedged.Add(1)
						}
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
			if got := len(adm.shardSlots[shard]); got != 0 {
				t.Errorf("%d shards: shard %d still holds %d sub-query slots", n, shard, got)
			}
			if got := adm.shardWait[shard].Load(); got != 0 {
				t.Errorf("%d shards: shard %d still has %d queued waiters", n, shard, got)
			}
		}
		if most := burst + fraction*float64(routed.Load()); float64(hedged.Load()) > most+1e-9 {
			t.Errorf("%d shards: %d hedges launched, budget allowed %.1f", n, hedged.Load(), most)
		}
	}

	// The run must have reached the paths it claims to cover.
	if rerouted.Load() == 0 || noShard.Load() == 0 || canceled.Load() == 0 ||
		entered[ShardQuarantined] == 0 || entered[ShardRejoining] == 0 {
		t.Errorf("thin coverage: %d reroutes, %d no-shard partitions, %d canceled, transitions into %v",
			rerouted.Load(), noShard.Load(), canceled.Load(), entered)
	}
	for _, o := range []string{hedgeWin, hedgeLoss, hedgeMismatch, hedgeDenied} {
		if hedgeCount(outcomes, o) == 0 {
			t.Errorf("no hedge ended %q", o)
		}
	}
}
