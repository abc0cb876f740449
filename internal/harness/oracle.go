package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/experiments"
	"accelscore/internal/forest"
	"accelscore/internal/model"
	"accelscore/internal/router"
)

// ErrWrong marks an answer that was returned as a success and differs from
// the oracle's — the one outcome no mode tolerates. Drivers count it as its
// own class (Wrong), apart from loud failures.
var ErrWrong = errors.New("WRONG answer")

// Verify compares returned predictions with the single-node answer. A
// mismatch is an ErrWrong naming the first difference.
func Verify(want, got []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d predictions, oracle has %d", ErrWrong, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: row %d predicted %d, oracle %d", ErrWrong, i, got[i], want[i])
		}
	}
	return nil
}

// VerifyMerged is Verify for a routed answer. Loadgen never allows partial
// merges and only issues full scans, so a partial or non-dense result is as
// wrong as a flipped prediction.
func VerifyMerged(want []int, m *router.Merged) error {
	switch {
	case m.Partial:
		return fmt.Errorf("%w: silently partial result (missing partitions %v)", ErrWrong, m.MissingPartitions)
	case m.ScoredRows != nil:
		return fmt.Errorf("%w: merged result not dense (%d ordinals kept)", ErrWrong, len(m.ScoredRows))
	}
	return Verify(want, m.Predictions)
}

// DemoOracle is the single-node ground truth for the demo statement over
// one table size: the exact predictions every routed answer must reproduce.
type DemoOracle struct {
	SQL         string
	Predictions []int
	// Service estimates the simulated single-node service time for a record
	// count, calibrated from the seeded demo forest's shape (it feeds the
	// scatter simulator's predicted curve).
	Service func(records int64) (time.Duration, error)
}

// NewDemoOracle trains the identical demo environment in-process and scores
// it single-node once (experiments.DemoForestConfig is seeded, so retraining
// reproduces the servers' model exactly).
func NewDemoOracle(records int, backend string) (*DemoOracle, error) {
	demo, err := experiments.NewDemo(records)
	if err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='%s'", backend)
	res, err := demo.Pipe.ExecQuery(sql)
	if err != nil {
		return nil, err
	}
	f, err := forest.Train(dataset.Iris(), experiments.DemoForestConfig)
	if err != nil {
		return nil, err
	}
	stats := f.ComputeStats()
	blobBytes := int64(stats.TotalNodes)*model.ApproxNodeBytes + 64
	return &DemoOracle{
		SQL:         sql,
		Predictions: res.Predictions,
		Service: func(recs int64) (time.Duration, error) {
			tl, _, err := demo.Pipe.Estimate(stats, recs, blobBytes, backend)
			if err != nil {
				return 0, err
			}
			return tl.Total(), nil
		},
	}, nil
}

// Routing sums what the answers to one drive of QueryOp report.
type Routing struct {
	mu                                     sync.Mutex
	Hedges, HedgeWins, Reroutes, CacheHits int
	// StragglerGap and SlowestShard are sums over the accepted answers.
	StragglerGap, SlowestShard time.Duration
	// OKAfterMark counts accepted answers to queries issued after Mark (a
	// chaos leg marks the moment it kills a shard).
	marked      atomic.Bool
	OKAfterMark int
	// FirstWrong is the first verification failure seen, nil if none.
	FirstWrong error
}

// Mark starts OKAfterMark counting.
func (a *Routing) Mark() { a.marked.Store(true) }

// QueryOp returns the operation every tier mode drives: the demo statement
// through r under admission class classOf(i) (nil: the default class),
// verified against the oracle, with what the answer says about its routing
// added to acc.
func (o *DemoOracle) QueryOp(r *router.Router, classOf func(i int) string, acc *Routing) Op {
	return func(ctx context.Context, i int) error {
		var opts router.QueryOptions
		if classOf != nil {
			opts.Class = classOf(i)
		}
		afterMark := acc.marked.Load()
		m, err := r.Query(ctx, o.SQL, opts)
		if err != nil {
			return err
		}
		wrong := VerifyMerged(o.Predictions, m)
		acc.mu.Lock()
		defer acc.mu.Unlock()
		if wrong != nil {
			if acc.FirstWrong == nil {
				acc.FirstWrong = wrong
			}
			return wrong
		}
		acc.Hedges += m.Hedges
		acc.HedgeWins += m.HedgeWins
		acc.Reroutes += m.Reroutes
		if m.CacheHit {
			acc.CacheHits++
		}
		if afterMark {
			acc.OKAfterMark++
		}
		acc.StragglerGap += m.StragglerGap
		var slowest time.Duration
		for _, l := range m.ShardLatency {
			slowest = max(slowest, l)
		}
		acc.SlowestShard += slowest
		return nil
	}
}
