// The shard side of the scale-out serving tier. A serve process acts as one
// data-symmetric shard: the router POSTs pre-validated wire requests (with a
// stripe assigned) to /score, warms the model cache through /warm,
// and probes /healthz. SQL is parsed exactly once, at the router. The
// protocol itself — both ends — lives in internal/router; this file only
// supplies the router.Backend that router.ShardHandler serves: structured
// requests go straight through the concurrent executor, keeping admission
// control and the resilience policy on the shard-local scoring path.
package main

import (
	"context"
	"errors"

	"accelscore/internal/db"
	"accelscore/internal/exec"
	"accelscore/internal/faults"
	"accelscore/internal/router"
)

// ID implements router.Backend.
func (s *server) ID() string { return s.shardID }

// Score implements router.Backend over the executor.
func (s *server) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	sreq, err := req.ScoreRequest()
	if err != nil {
		return nil, router.NoReroute(err)
	}
	res, err := s.exec.SubmitScore(ctx, sreq)
	if err != nil {
		code := classify(err)
		if code == router.CodeBadRequest {
			return nil, router.NoReroute(err)
		}
		return nil, &router.ShardError{Shard: s.shardID, Code: code, Msg: err.Error()}
	}
	return router.WireResult(s.shardID, sreq.Agg, res)
}

// Warm implements router.Backend.
func (s *server) Warm(ctx context.Context, model string) (string, error) {
	return s.demo.Pipe.WarmModel(model)
}

// Healthz implements router.Backend; /healthz itself is handleHealthz.
func (s *server) Healthz(ctx context.Context) error { return nil }

// classify is the one table from a pipeline, executor or database error to
// its failure class (a router.Code*); /score puts the class on the wire and
// every endpoint answers router.StatusOf of it. A device fault the
// executor's CPU fallback could not absorb, or a journal that refused a
// write, is this shard's trouble: internal, so the router reroutes the
// partition and counts the failure against the shard's health. Anything unrecognized is query-level (unknown model, bad filter):
// on data-symmetric replicas it fails identically everywhere, so the router
// must not reroute it or hold it against the shard.
func classify(err error) string {
	switch {
	case errors.Is(err, exec.ErrRejected), errors.Is(err, exec.ErrClosed):
		return router.CodeRejected
	case errors.Is(err, context.DeadlineExceeded):
		return router.CodeTimeout
	case errors.Is(err, context.Canceled):
		return router.CodeCanceled
	case faults.Injected(err), errors.Is(err, db.ErrJournal):
		return router.CodeInternal
	default:
		return router.CodeBadRequest
	}
}
