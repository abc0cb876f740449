package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accelscore/internal/pipeline"
)

// pendingBatch is one open coalescing batch: the first query for a
// (model, backend) key becomes the leader; companions arriving before the
// batch seals join as followers. The batch seals when the window timer
// fires, when MaxBatch queries have joined, or — group-commit style — the
// moment the previous batch for the same key finishes executing, whichever
// comes first. At that point the leader executes it as ONE pipeline run and
// every member receives its own QueryResult. The chained seal is what makes
// the batch size adapt to load without added latency: under a steady stream
// the window timer only ever pays off the first batch per key.
//
// Each member carries its own context: members whose deadline has already
// expired when the batch executes are shed individually (per-member err),
// and the batch itself runs under a context that is canceled as soon as
// every member has given up — a batch of abandoned queries stops consuming
// the device.
type pendingBatch struct {
	key   string
	reqs  []*pipeline.ScoreRequest
	ctxs  []context.Context
	timer *time.Timer

	sealed bool
	ready  chan struct{} // closed at seal; wakes the leader

	results []*pipeline.QueryResult
	errs    []error       // per-member errors (expired members); set before done closes
	err     error         // batch-wide error for members that actually executed
	done    chan struct{} // closed after execution; wakes followers
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

// coalesce joins or opens the batch for req's key and blocks until the
// batch has executed, returning this query's own result. A follower whose
// context expires while waiting abandons the batch (its slot still scores;
// the result is discarded) rather than holding its caller hostage.
func (e *Executor) coalesce(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	key := coalesceKey(req)
	e.mu.Lock()
	if b, ok := e.pending[key]; ok {
		// Follower: join the open batch. Sealed batches are removed from
		// pending, so this batch is still accepting members.
		idx := len(b.reqs)
		b.reqs = append(b.reqs, req)
		b.ctxs = append(b.ctxs, ctx)
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
	// Leader: open a batch and arm the window timer.
	b := &pendingBatch{
		key:   key,
		reqs:  []*pipeline.ScoreRequest{req},
		ctxs:  []context.Context{ctx},
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	e.pending[key] = b
	b.timer = time.AfterFunc(e.cfg.CoalesceWindow, func() {
		e.mu.Lock()
		e.sealLocked(b)
		e.mu.Unlock()
	})
	e.mu.Unlock()

	<-b.ready
	e.mu.Lock()
	e.inflightKeys[key]++
	e.mu.Unlock()
	e.executeBatch(b)
	e.mu.Lock()
	e.inflightKeys[key]--
	if e.inflightKeys[key] == 0 {
		delete(e.inflightKeys, key)
		// Group commit: what queued behind this run executes next as one
		// batch without waiting out its window — but only if it actually
		// batched. Chaining singletons would convoy batch-of-1 runs, each
		// paying the full fixed cost the coalescer exists to amortize.
		if nb, ok := e.pending[key]; ok && len(nb.reqs) >= 2 {
			e.sealLocked(nb)
		}
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

// sealLocked closes a batch to new members and wakes its leader. Callers
// hold e.mu; sealing twice (timer vs. MaxBatch race) is a no-op.
func (e *Executor) sealLocked(b *pendingBatch) {
	if b.sealed {
		return
	}
	b.sealed = true
	delete(e.pending, b.key)
	if b.timer != nil {
		b.timer.Stop()
	}
	close(b.ready)
}
