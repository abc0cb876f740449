package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accelscore/internal/pipeline"
)

// SpanCoalesceWait names the span the executor adds to each member's trace
// for the time it spent between arrival and its batch sealing.
const SpanCoalesceWait = "coalesce wait"

// pendingBatch is one coalescing batch under plain group commit. Its first
// query is the leader. When nothing is executing for the leader's (model,
// backend, fused shape) key the batch seals at once — no timer, no entry in
// Executor.pending — because an idle key has nothing to amortize against and
// waiting would only add a fixed floor to every small query. When the key is
// executing, the batch opens in Executor.pending, arrivals join it as
// followers, and it seals at the first of
//
//   - a run for the key finishing, whatever the batch's size,
//   - MaxBatch members having joined,
//   - CoalesceWindow elapsing: only an upper bound on waiting behind a long
//     run, so two same-model scans still overlap on two workers.
//
// So no query waits longer than min(run end, MaxBatch, window), an idle key
// never waits at all, and batches form exactly when a query would have queued
// anyway. The leader then executes the batch as ONE pipeline run and every
// member receives its own QueryResult.
//
// Each member carries its own context: members whose deadline has already
// expired when the batch executes are shed individually (per-member err),
// and the batch itself runs under a context that is canceled as soon as
// every member has given up — a batch of abandoned queries stops consuming
// the device.
type pendingBatch struct {
	key     string
	reqs    []*pipeline.ScoreRequest
	ctxs    []context.Context
	arrived []time.Time // per member, for the coalesce-wait layer
	timer   *time.Timer // the window cap; nil for a batch that never waited

	sealed   bool
	sealedAt time.Time
	ready    chan struct{} // closed at seal; wakes the leader

	results []*pipeline.QueryResult
	errs    []error       // per-member errors (expired members); set before done closes
	err     error         // batch-wide error for members that actually executed
	done    chan struct{} // closed after execution; wakes followers
}

// add appends one member and returns its slot. Callers hold e.mu once the
// batch is visible in Executor.pending.
func (b *pendingBatch) add(ctx context.Context, req *pipeline.ScoreRequest, arrived time.Time) int {
	b.reqs = append(b.reqs, req)
	b.ctxs = append(b.ctxs, ctx)
	b.arrived = append(b.arrived, arrived)
	return len(b.reqs) - 1
}

// memberOutcome returns member idx's result or error after done has closed.
func (b *pendingBatch) memberOutcome(idx int) (*pipeline.QueryResult, error) {
	if b.errs != nil && b.errs[idx] != nil {
		return nil, b.errs[idx]
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.results[idx], nil
}

// coalesceKey groups queries that can share one pipeline run. Input tables
// may differ (the pipeline snapshots each), so the key is what the batch
// must agree on: the model, the backend, and the fused-query shape (the
// canonical pushed-down WHERE plus the aggregation mode) — a filtered query
// and an unfiltered one cannot share a backend call.
func coalesceKey(req *pipeline.ScoreRequest) string {
	return req.Model + "\x00" + req.Backend + "\x00" + req.FusionKey()
}

// coalesce runs req in a batch of its key — alone and at once when the key
// is idle, else with whatever queues behind the run in progress — and blocks
// until the batch has executed, returning this query's own result. A
// follower whose context expires while waiting abandons the batch (its slot
// still scores; the result is discarded) rather than holding its caller
// hostage.
func (e *Executor) coalesce(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	key := coalesceKey(req)
	arrived := time.Now()
	e.mu.Lock()
	if b, ok := e.pending[key]; ok {
		// Follower: join the open batch. Sealed batches are removed from
		// pending, so this batch is still accepting members.
		idx := b.add(ctx, req, arrived)
		if len(b.reqs) >= e.cfg.MaxBatch {
			e.sealLocked(b)
		}
		e.mu.Unlock()
		select {
		case <-b.done:
			return b.memberOutcome(idx)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Leader. An idle key has nothing to wait for, so its batch seals here
	// and now; a busy one opens the batch that forms behind the run in
	// progress, with the window as the cap on how long.
	b := &pendingBatch{key: key, ready: make(chan struct{}), done: make(chan struct{})}
	b.add(ctx, req, arrived)
	if e.inflightKeys[key] == 0 {
		e.sealLocked(b)
	} else {
		e.pending[key] = b
		b.timer = time.AfterFunc(e.cfg.CoalesceWindow, func() {
			e.mu.Lock()
			e.sealLocked(b)
			e.mu.Unlock()
		})
	}
	e.mu.Unlock()

	<-b.ready
	e.executeBatch(b)
	e.noteCoalesceWait(b)
	e.mu.Lock()
	if e.inflightKeys[key]--; e.inflightKeys[key] == 0 {
		delete(e.inflightKeys, key)
	}
	// Group commit: what queued behind this run executes next as one batch.
	if nb, ok := e.pending[key]; ok {
		e.sealLocked(nb)
	}
	e.mu.Unlock()
	close(b.done)
	return b.memberOutcome(0)
}

// executeBatch sheds members whose deadline already expired, derives the
// batch context from the survivors, runs them as one pipeline call, and
// fans results back out to member slots. It fills b.results/b.errs/b.err;
// the caller closes b.done.
func (e *Executor) executeBatch(b *pendingBatch) {
	b.errs = make([]error, len(b.reqs))
	live := make([]int, 0, len(b.reqs))
	for i, c := range b.ctxs {
		if err := c.Err(); err != nil {
			b.errs[i] = err
		} else {
			live = append(live, i)
		}
	}
	if shed := len(b.reqs) - len(live); shed > 0 {
		e.noteExpiredShed(shed)
	}
	if len(live) == 0 {
		return
	}

	liveCtxs := make([]context.Context, len(live))
	liveReqs := make([]*pipeline.ScoreRequest, len(live))
	for j, i := range live {
		liveCtxs[j] = b.ctxs[i]
		liveReqs[j] = b.reqs[i]
	}
	bctx, cancel := e.batchContext(liveCtxs)
	defer cancel()

	results, err := e.runBatch(bctx, liveReqs)
	if err != nil {
		// A run that died with the batch context reports why the context
		// ended — the last member's own deadline — not the Canceled that
		// the layers below read off it.
		if cause := context.Cause(bctx); errors.Is(err, context.Canceled) &&
			cause != nil && !errors.Is(cause, context.Canceled) {
			err = fmt.Errorf("%w: %v", cause, err)
		}
		b.err = err
		return
	}
	b.results = make([]*pipeline.QueryResult, len(b.reqs))
	for j, i := range live {
		b.results[i] = results[j]
	}
}

// batchContext derives the context one coalesced run executes under: rooted
// at the executor (Close aborts it), bounded by the LATEST member deadline
// when every member has one (the run is still useful to the member with the
// most budget), and canceled outright once every member context is done —
// nobody is waiting for the predictions anymore. That cancellation carries
// the last member's own reason as its cause: when the deadline above and the
// member's expiry fire together, context.Cause says DeadlineExceeded
// whichever wins.
func (e *Executor) batchContext(ctxs []context.Context) (context.Context, context.CancelFunc) {
	root, cancel := context.WithCancelCause(e.rootCtx)
	bctx, release := context.Context(root), func() { cancel(nil) }
	latest, all := time.Time{}, true
	for _, c := range ctxs {
		d, ok := c.Deadline()
		if !ok {
			all = false
			break
		}
		if d.After(latest) {
			latest = d
		}
	}
	if all && len(ctxs) > 0 {
		var dcancel context.CancelFunc
		bctx, dcancel = context.WithDeadline(root, latest)
		release = func() { dcancel(); cancel(nil) }
	}
	remaining := int64(len(ctxs))
	stops := make([]func() bool, 0, len(ctxs))
	for _, c := range ctxs {
		stops = append(stops, context.AfterFunc(c, func() {
			if atomic.AddInt64(&remaining, -1) == 0 {
				cancel(context.Cause(c))
			}
		}))
	}
	return bctx, func() {
		for _, stop := range stops {
			stop()
		}
		release()
	}
}

// sealLocked closes a batch to new members, counts its key as executing from
// here until its leader's run returns, and wakes the leader. Callers hold
// e.mu; sealing twice (timer vs. MaxBatch vs. chained seal) is a no-op.
func (e *Executor) sealLocked(b *pendingBatch) {
	if b.sealed {
		return
	}
	b.sealed = true
	b.sealedAt = time.Now()
	e.inflightKeys[b.key]++
	if e.pending[b.key] == b {
		delete(e.pending, b.key)
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	close(b.ready)
}

// noteCoalesceWait publishes what the coalescer cost each member of an
// executed batch — arrival to seal — as the layer's own histogram and as a
// span on the member's trace. The span starts before the trace does (the
// pipeline opens the trace when the run begins), so its offset is negative.
func (e *Executor) noteCoalesceWait(b *pendingBatch) {
	for i, at := range b.arrived {
		wait := b.sealedAt.Sub(at)
		if e.met != nil {
			e.met.coalesceWait.Observe(wait.Seconds())
		}
		if b.results == nil || b.results[i] == nil {
			continue
		}
		if tr, ok := e.tracer.Get(b.results[i].TraceID); ok {
			tr.AddSpan(SpanCoalesceWait, at, wait)
		}
	}
}
