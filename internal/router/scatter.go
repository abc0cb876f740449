// Shard-aware scatter dispatch. The dispatcher fans a query's partitions
// out concurrently over the shard replicas. Shards are data-symmetric —
// every shard holds the full table and any shard can score any partition —
// so resilience is rerouting: when a shard is not taking traffic or a
// sub-call fails, its partition moves to the next replica. Only when every
// route is exhausted does a partition degrade to a typed partial result
// (PartialError), never to silently missing or zero-valued predictions.
//
// There is one notion of shard health, the HealthManager's state machine,
// and every attempt passes it exactly twice: acquire before the shard is
// called, settle when the attempt ends.
package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// ErrNoShardAvailable is the per-partition error when no shard that could
// serve it was taking traffic (all quarantined, rejoining at their trickle
// limit, or out of sub-query slots).
var ErrNoShardAvailable = errors.New("router: no shard available")

// ShardFunc executes one partition of a query on one shard. Implementations
// signal query-level errors — ones that would fail identically on every
// replica, like a malformed statement — by wrapping them with NoReroute.
type ShardFunc func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error)

// noRerouteError marks an error as the query's fault, not the shard's:
// rerouting would fail everywhere, and the shard's health stays untouched.
type noRerouteError struct{ err error }

func (e *noRerouteError) Error() string { return e.err.Error() }
func (e *noRerouteError) Unwrap() error { return e.err }

// NoReroute wraps an error so the dispatcher fails the partition
// immediately instead of rerouting it and charging the shard's health.
func NoReroute(err error) error {
	if err == nil {
		return nil
	}
	return &noRerouteError{err: err}
}

// rerouteable reports whether the dispatcher may retry err on another shard.
func rerouteable(err error) bool {
	var nr *noRerouteError
	return !errors.As(err, &nr)
}

// IsNoReroute reports whether err is a query-level error (wrapped by
// NoReroute somewhere in its chain): every replica would fail identically,
// so the caller should fail the query rather than degrade to partial
// results.
func IsNoReroute(err error) bool { return err != nil && !rerouteable(err) }

// dispatchResult is one partition's outcome.
type dispatchResult struct {
	// Part is the partition this result covers.
	Part pipeline.Partition
	// Preferred is the shard the plan sent the partition to first; Reroutes
	// are charged to it.
	Preferred int
	// Shard is the shard that produced Value (or, when every route failed,
	// Preferred — the original fault).
	Shard int
	// Reroutes is how many shards failed the partition before Shard.
	Reroutes int
	// Value is the shard's sub-result (nil when Err is set).
	Value *Result
	// Err is the partition's terminal error after every route failed.
	Err error
	// Latency is the wall time of the successful attempt (or of the whole
	// failed route sequence).
	Latency time.Duration
	// Hedged reports a hedge launched for this partition; HedgeWon reports
	// the hedge attempt's result was the one used.
	Hedged   bool
	HedgeWon bool
}

// dispatcher scatters partitions across shard replicas, rerouting on
// failure. It decides from the router's own state directly: the health
// state machine, the per-shard sub-query slots, the latency ring and the
// hedge budget.
type dispatcher struct {
	shards  int
	health  *HealthManager
	adm     *admission         // nil without admission control
	lat     *latencyTracker    // feeds the hedge trigger
	budget  *hedgeBudget       // nil disables hedging
	metrics *obs.RouterMetrics // nil-safe
}

// attempt is one shard call's outcome.
type attempt struct {
	shard int
	v     *Result
	err   error
	lat   time.Duration
}

// acquire takes everything one attempt on shard needs: the health state
// machine's leave (quarantined shards refuse, rejoining shards trickle) and,
// when admission bounds them, one of the shard's sub-query slots. A hedge
// asks for more — a fully healthy shard with a free slot right now —
// because a hedge to a sick or saturated replica is worse than waiting. A
// refusal carries no health signal. A nil return must be paired with
// exactly one settle.
func (d *dispatcher) acquire(ctx context.Context, shard int, hedge bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !d.health.acquire(shard, hedge) {
		return fmt.Errorf("shard %d: %s, not taking traffic", shard, d.health.State(shard))
	}
	if err := d.adm.acquireShard(ctx, shard, !hedge); err != nil {
		d.health.release(shard, signalNone, 0)
		return err
	}
	return nil
}

// settle ends an acquired attempt: it frees the shard's slot and tells the
// state machine how the attempt went. A result feeds the shard's latency
// series (the hedge ring and the /metrics histogram, the same sample); a
// query-level error means the shard answered correctly; a failure the
// shard is not to blame for — the caller's budget expired, or reaped marks
// a hedge-race loser we cancelled — is no signal at all. Nor is the shard's
// own back-pressure (a "rejected" reply: its executor queue is full, or it
// is draining): the partition is rerouted and counted as a reroute, but a
// replica that is healthy and busy must not be degraded for saying so, or
// its partitions pile onto the others and they overflow in turn — the same
// ruling acquire makes for the router's own full sub-query queue.
func (d *dispatcher) settle(ctx context.Context, a attempt, reaped bool) {
	d.adm.releaseShard(a.shard)
	switch {
	case a.err == nil:
		d.lat.note(a.shard, a.lat)
		d.metrics.ObserveShard(a.shard, a.lat, 0)
		d.health.release(a.shard, signalPass, a.lat)
	case !rerouteable(a.err):
		d.health.release(a.shard, signalPass, a.lat)
	case reaped, ctx.Err() != nil:
		d.health.release(a.shard, signalNone, a.lat)
	default:
		d.metrics.ObserveShard(a.shard, a.lat, 1)
		sig := signalFail
		var se *ShardError
		if errors.As(a.err, &se) && se.Code == CodeRejected {
			sig = signalNone
		}
		d.health.release(a.shard, sig, a.lat)
	}
}

// runAttempt calls do on an acquired shard and times it.
func runAttempt(ctx context.Context, shard int, part pipeline.Partition, do ShardFunc) attempt {
	start := time.Now()
	v, err := do(ctx, shard, part)
	return attempt{shard: shard, v: v, err: err, lat: time.Since(start)}
}

// scatter runs do once per partition, concurrently, and returns one
// dispatchResult per partition in input order. The k-th partition prefers
// shard (home+k) mod shards; a failure or a shard not taking traffic routes
// it onward through the remaining replicas. scatter never fabricates data: a
// partition with no surviving route carries Err.
func (d *dispatcher) scatter(ctx context.Context, parts []pipeline.Partition, home int, do ShardFunc) []dispatchResult {
	out := make([]dispatchResult, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part pipeline.Partition) {
			defer wg.Done()
			out[i] = d.route(ctx, part, (home+i)%d.shards, do)
		}(i, part)
	}
	wg.Wait()
	return out
}

// route tries one partition on its preferred shard and reroutes on failure.
func (d *dispatcher) route(ctx context.Context, part pipeline.Partition, preferred int, do ShardFunc) dispatchResult {
	n := d.shards
	res := dispatchResult{Part: part, Preferred: preferred, Shard: preferred}
	start := time.Now()
	d.budget.earn()

	var errs []error
	attempted := false
	for hop := 0; hop < n; hop++ {
		shard := (preferred + hop) % n
		if err := d.acquire(ctx, shard, false); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				res.Err = cerr
				res.Latency = time.Since(start)
				return res
			}
			errs = append(errs, err)
			continue
		}
		attempted = true
		attemptStart := time.Now()

		var out hopOutcome
		if hop == 0 && d.budget != nil && n > 1 {
			out = d.hedgedAttempt(ctx, shard, part, do)
		} else {
			out = d.settled(ctx, runAttempt(ctx, shard, part, do))
		}
		res.Hedged = res.Hedged || out.hedged
		switch {
		case out.err == nil:
			res.Shard = out.shard
			res.Value = out.value
			res.HedgeWon = out.hedgeWon
			res.Latency = time.Since(attemptStart) // successful attempt only
			return res
		case !rerouteable(out.err):
			// The query itself is bad; the shard answered correctly.
			res.Shard, res.Err = out.shard, out.err
		case ctx.Err() != nil:
			// The caller's budget expired mid-call; don't blame the shard.
			res.Shard, res.Err = shard, ctx.Err()
		default:
			res.Reroutes++
			errs = append(errs, out.attemptErrs...)
			continue
		}
		res.Latency = time.Since(start)
		return res
	}
	if !attempted {
		errs = append(errs, ErrNoShardAvailable)
	}
	// res.Shard still names the preferred shard — the original fault — not
	// the last reroute target the partition happened to die on.
	res.Err = &RouteError{Preferred: preferred, Attempts: errs}
	res.Latency = time.Since(start)
	return res
}

// RouteError is a partition's terminal error after every route was
// exhausted. Its message and cause lead with the PREFERRED shard's own
// failure — the original fault — rather than the last reroute target, and
// Unwrap exposes every per-shard attempt error so errors.Is/As keep
// working across the whole chain.
type RouteError struct {
	// Preferred is the shard the partition was sent to first.
	Preferred int
	// Attempts holds each route's failure in attempt order: the preferred
	// shard's error first, reroute targets after it.
	Attempts []error
}

// Error implements error, leading with the original (preferred-shard)
// failure.
func (e *RouteError) Error() string {
	if len(e.Attempts) == 0 {
		return fmt.Sprintf("router: shard %d: no route attempted", e.Preferred)
	}
	first := e.Attempts[0].Error()
	if len(e.Attempts) == 1 {
		return first
	}
	rest := make([]string, 0, len(e.Attempts)-1)
	for _, a := range e.Attempts[1:] {
		rest = append(rest, a.Error())
	}
	return fmt.Sprintf("%s (reroutes also failed: %s)", first, strings.Join(rest, "; "))
}

// Unwrap exposes every attempt error for errors.Is/As.
func (e *RouteError) Unwrap() []error { return e.Attempts }

// PartialError is the typed "partial results" outcome: some partitions have
// no surviving route. Callers that cannot tolerate gaps fail the query;
// callers that can (the router's partial mode) return the surviving
// partitions with an explicit partial marker, never splicing in zeros.
type PartialError struct {
	// Missing lists the partition indices with no result, ascending.
	Missing []int
	// Errs maps each missing partition index to its terminal error.
	Errs map[int]error
}

// Error implements error.
func (p *PartialError) Error() string {
	parts := make([]string, 0, len(p.Missing))
	for _, k := range p.Missing {
		parts = append(parts, fmt.Sprintf("%d: %v", k, p.Errs[k]))
	}
	return fmt.Sprintf("router: partial result, %d partition(s) missing [%s]",
		len(p.Missing), strings.Join(parts, "; "))
}

// partial inspects a scatter outcome and returns the typed PartialError when
// any partition failed (nil when all succeeded).
func partial(results []dispatchResult) *PartialError {
	var pe *PartialError
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if pe == nil {
			pe = &PartialError{Errs: make(map[int]error)}
		}
		pe.Missing = append(pe.Missing, r.Part.Index)
		pe.Errs[r.Part.Index] = r.Err
	}
	if pe != nil {
		sort.Ints(pe.Missing)
	}
	return pe
}
