// Tail-latency hedging for the scatter path. When a partition's primary
// attempt outlives the shard's own recent P95, the dispatcher launches the
// same sub-query on a healthy replica and takes the first finisher — but
// only within a strict hedge budget, so hedging can never amplify an
// overload into a request storm. The trigger is measured and shard-local
// (Fan, Sen et al.: tune from latency distributions, not static knobs), so a
// uniformly slow tier does not hedge at all while a single straggler hedges
// at once. Correctness bar: when both attempts complete, their results MUST
// be bit-identical; a divergent pair fails the whole query loudly
// (NoReroute) instead of silently picking one answer.
package router

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"accelscore/internal/pipeline"
)

// Hedge outcome labels of accelscore_router_hedges_total{outcome}.
const (
	// hedgeWin: the hedge attempt's result was used.
	hedgeWin = "win"
	// hedgeLoss: a hedge launched but the primary's result was used.
	hedgeLoss = "loss"
	// hedgeMismatch: primary and hedge both completed with divergent
	// results — the query fails loudly.
	hedgeMismatch = "mismatch"
	// hedgeDenied: the trigger fired but no hedge launched (budget
	// exhausted or no healthy replica).
	hedgeDenied = "denied"
)

const (
	// hedgeMinDelay floors the adaptive trigger so network micro-jitter
	// can't hedge everything.
	hedgeMinDelay = 2 * time.Millisecond
	// hedgeMinSamples is how many latency observations a shard needs
	// before hedging engages for it.
	hedgeMinSamples = 8
	// hedgeFraction caps hedges at ~5% of dispatched sub-queries, and
	// hedgeBurst is the token bucket's depth.
	hedgeFraction = 0.05
	hedgeBurst    = 4
)

// hedgeBudget rations hedge launches to a fraction of dispatched
// partitions: every routed partition earns `fraction` tokens (capped at
// `burst`), and each hedge spends one. Under a uniform load this converges
// to at most `fraction` hedges per sub-query, with `burst` allowing short
// clumps when a straggler stalls several partitions at once. A nil budget
// means hedging is off.
type hedgeBudget struct {
	mu       sync.Mutex
	fraction float64
	burst    float64
	tokens   float64
}

// newHedgeBudget builds a budget allowing ~fraction hedges per dispatched
// partition with the given burst depth; the bucket starts full. The router
// always asks for (hedgeFraction, hedgeBurst); tests ask for others.
func newHedgeBudget(fraction float64, burst int) *hedgeBudget {
	return &hedgeBudget{fraction: fraction, burst: float64(burst), tokens: float64(burst)}
}

// earn credits one dispatched partition.
func (b *hedgeBudget) earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+b.fraction, b.burst)
	b.mu.Unlock()
}

// trySpend consumes one hedge token, reporting false when the budget is
// exhausted.
func (b *hedgeBudget) trySpend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns an unspent token (hedge aborted before launch).
func (b *hedgeBudget) refund() {
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+1, b.burst)
	b.mu.Unlock()
}

// hedgeCtxKey marks a context as belonging to a hedge attempt.
type hedgeCtxKey struct{}

// isHedgeAttempt reports whether ctx belongs to a hedge attempt launched by
// the dispatcher — the router labels hedge spans in traces with it.
func isHedgeAttempt(ctx context.Context) bool {
	v, _ := ctx.Value(hedgeCtxKey{}).(bool)
	return v
}

// hedgeTrigger is how long a primary on shard may run before a hedge
// launches: the P95 of the shard's OWN latency window, floored at
// hedgeMinDelay, and 0 (no hedging) until the shard has hedgeMinSamples
// observations. The value the dispatcher decides with is the value /metrics
// shows.
func (d *dispatcher) hedgeTrigger(shard int) time.Duration {
	p := d.lat[shard].Quantile(95, hedgeMinSamples)
	if p > 0 && p < hedgeMinDelay {
		p = hedgeMinDelay
	}
	d.metrics.SetHedgeTrigger(shard, p)
	return p
}

// hopOutcome is one hop's resolution — a solo attempt or a hedged pair —
// after every attempt it ran has been settled.
type hopOutcome struct {
	value       *Result
	shard       int
	err         error
	attemptErrs []error // per-shard labeled errors when err is rerouteable
	hedged      bool
	hedgeWon    bool
}

// settled settles a hop's only attempt and reports it.
func (d *dispatcher) settled(ctx context.Context, a attempt) hopOutcome {
	d.settle(ctx, a, false)
	out := hopOutcome{value: a.v, shard: a.shard, err: a.err}
	if a.err != nil && rerouteable(a.err) {
		out.attemptErrs = []error{fmt.Errorf("shard %d: %w", a.shard, a.err)}
	}
	return out
}

// hedgeTarget spends a hedge token on the next replica after primary that
// acquire grants a hedge, returning it acquired; -1, with the token
// refunded, when the budget or every replica says no.
func (d *dispatcher) hedgeTarget(ctx context.Context, primary int) int {
	if !d.budget.trySpend() {
		return -1
	}
	for hop := 1; hop < d.shards; hop++ {
		shard := (primary + hop) % d.shards
		if d.acquire(ctx, shard, true) == nil {
			return shard
		}
	}
	d.budget.refund()
	return -1
}

// hedgedAttempt runs the hop-0 attempt with tail-latency hedging. The
// caller has acquired primary; this function settles every attempt it runs
// before returning.
func (d *dispatcher) hedgedAttempt(ctx context.Context, primary int, part pipeline.Partition, do ShardFunc) hopOutcome {
	delay := d.hedgeTrigger(primary)
	if delay <= 0 {
		return d.settled(ctx, runAttempt(ctx, primary, part, do))
	}

	ch := make(chan attempt, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() { ch <- runAttempt(pctx, primary, part, do) }()

	timer := time.NewTimer(delay)
	select {
	case first := <-ch:
		timer.Stop()
		return d.settled(ctx, first)
	case <-timer.C:
	}

	// The primary outlived its trigger: launch a hedge if the budget and a
	// healthy replica allow it.
	hedgeShard := d.hedgeTarget(ctx, primary)
	if hedgeShard < 0 {
		d.metrics.NoteHedge(hedgeDenied)
		return d.settled(ctx, <-ch)
	}
	hctx, hcancel := context.WithCancel(context.WithValue(ctx, hedgeCtxKey{}, true))
	defer hcancel()
	go func() { ch <- runAttempt(hctx, hedgeShard, part, do) }()

	first := <-ch
	firstIsPrimary := first.shard == primary
	// When the first finisher carries a usable answer (success or a
	// query-level error), reap the loser; when it failed, the partner is
	// the remaining hope, so let it run. Either way we WAIT for the
	// partner: do() honors cancellation so this is prompt, and it
	// guarantees a completed pair is always compared for divergence.
	reaped := first.err == nil || !rerouteable(first.err)
	if reaped {
		if firstIsPrimary {
			hcancel()
		} else {
			pcancel()
		}
	}
	second := <-ch
	d.settle(ctx, first, false)
	d.settle(ctx, second, reaped)

	pa, ha := first, second
	if !firstIsPrimary {
		pa, ha = second, first
	}
	out := hopOutcome{hedged: true}
	note := hedgeLoss
	pOK, hOK := pa.err == nil, ha.err == nil
	switch {
	case pOK && hOK:
		if cmpErr := compareResults(pa.v, ha.v); cmpErr != nil {
			note = hedgeMismatch
			out.shard = primary
			out.err = NoReroute(fmt.Errorf(
				"router: hedge disagreement on partition %s: shard %d and shard %d returned divergent results: %w",
				part, primary, hedgeShard, cmpErr))
			break
		}
		// Bit-identical pair: take the first finisher.
		out.value, out.shard = first.v, first.shard
		out.hedgeWon = !firstIsPrimary
	case pOK:
		out.value, out.shard = pa.v, primary
	case hOK:
		out.value, out.shard, out.hedgeWon = ha.v, hedgeShard, true
	// Both failed. Query-level errors dominate: the shard answered, the
	// query is bad.
	case !rerouteable(pa.err):
		out.shard, out.err = primary, pa.err
	case !rerouteable(ha.err):
		out.shard, out.err = hedgeShard, ha.err
	default:
		out.shard, out.err = primary, pa.err
		out.attemptErrs = []error{
			fmt.Errorf("shard %d: %w", primary, pa.err),
			fmt.Errorf("shard %d (hedge): %w", hedgeShard, ha.err),
		}
	}
	if out.hedgeWon {
		note = hedgeWin
	}
	d.metrics.NoteHedge(note)
	return out
}

// compareResults is the hedge pair verifier: when a primary and its hedge
// BOTH complete, their results must be bit-identical — predictions,
// ordinals, class counts, and row accounting. Any divergence is a
// correctness event that fails the query loudly (the dispatcher wraps it
// NoReroute), never a silent pick-one.
func compareResults(a, b *Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("hedge pair with a missing result")
	}
	if len(a.Predictions) != len(b.Predictions) {
		return fmt.Errorf("prediction count %d vs %d", len(a.Predictions), len(b.Predictions))
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			return fmt.Errorf("row %d: prediction %d vs %d", i, a.Predictions[i], b.Predictions[i])
		}
	}
	if len(a.ScoredRows) != len(b.ScoredRows) {
		return fmt.Errorf("ordinal count %d vs %d", len(a.ScoredRows), len(b.ScoredRows))
	}
	for i := range a.ScoredRows {
		if a.ScoredRows[i] != b.ScoredRows[i] {
			return fmt.Errorf("ordinal %d: row %d vs %d", i, a.ScoredRows[i], b.ScoredRows[i])
		}
	}
	if len(a.ClassCounts) != len(b.ClassCounts) {
		return fmt.Errorf("class-count length %d vs %d", len(a.ClassCounts), len(b.ClassCounts))
	}
	for i := range a.ClassCounts {
		if a.ClassCounts[i] != b.ClassCounts[i] {
			return fmt.Errorf("class %d: count %d vs %d", i, a.ClassCounts[i], b.ClassCounts[i])
		}
	}
	if a.RowsScored != b.RowsScored {
		return fmt.Errorf("rows scored %d vs %d", a.RowsScored, b.RowsScored)
	}
	return nil
}
