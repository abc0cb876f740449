// Router admission control: the overload valve in front of the scatter.
// Three independent checks run at admission, before any shard sees the
// query — (1) a router-wide in-flight bound, (2) priority-class shedding
// (classes reuse the SLO objective machinery; looser-objective classes
// lose capacity first as the tier fills), and (3) deadline-aware shedding
// (a query whose remaining deadline is below the EWMA-predicted service
// time would only burn capacity to time out, so it is refused immediately
// with a Retry-After hint; inactive until the first query has been
// measured). Per-shard in-flight and queue bounds guard the
// scatter itself: a saturated shard refuses the sub-query so the dispatcher
// reroutes instead of queueing without bound.
package router

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accelscore/internal/obs"
)

// AdmissionConfig tunes the router's admission control. A nil config (on
// router Config) disables admission entirely.
type AdmissionConfig struct {
	// MaxInFlight is the router-wide concurrent-query bound (required,
	// >= 1). The priority thresholds scale off it.
	MaxInFlight int
	// ShardInFlight bounds concurrent sub-queries per shard (0 = no
	// per-shard bound); ShardQueue bounds waiters beyond that before a
	// sub-query fast-fails to reroute (default 2x ShardInFlight).
	ShardInFlight int
	ShardQueue    int
	// Classes are the priority classes (the PR 8 SLO objective spelling:
	// "interactive=25ms,batch=500ms"). The tightest objective is the
	// highest priority; a class with rank r of R is admitted only while
	// in-flight < MaxInFlight*(R-r)/R, so low-priority load sheds first.
	// Unknown or empty classes get the lowest priority.
	Classes []obs.Objective
}

// Shed reasons.
const (
	ShedCapacity = "capacity"
	ShedPriority = "priority"
	ShedDeadline = "deadline"
)

// ShedError is the admission-control rejection: the router refused the
// query before scattering it. Handlers map it to 503 with a Retry-After
// hint.
type ShedError struct {
	Class      string
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	cls := e.Class
	if cls == "" {
		cls = "default"
	}
	return fmt.Sprintf("router: admission rejected (%s, class %s), retry after %v",
		e.Reason, cls, e.RetryAfter)
}

// classCounters tracks one class's admission ledger.
type classCounters struct {
	offered  atomic.Uint64
	accepted atomic.Uint64
	shed     atomic.Uint64
}

// AdmissionStats is one class's ledger snapshot; Offered == Accepted +
// Shed always holds.
type AdmissionStats struct {
	Class    string `json:"class"`
	Rank     int    `json:"rank"`
	Offered  uint64 `json:"offered"`
	Accepted uint64 `json:"accepted"`
	Shed     uint64 `json:"shed"`
}

// admission is the router's admission controller.
type admission struct {
	cfg      AdmissionConfig
	inFlight atomic.Int64
	ewmaNS   atomic.Int64
	// classes sorted by objective latency ascending: index == priority
	// rank (0 = highest).
	classes []obs.Objective
	rank    map[string]int

	mu     sync.Mutex
	ledger map[string]*classCounters

	// Per-shard scatter bounds.
	shardSlots []chan struct{}
	shardWait  []atomic.Int64

	onShed func(class string)
}

// newAdmission builds the controller (nil cfg => nil controller; every
// method is nil-safe).
func newAdmission(cfg *AdmissionConfig, shards int, onShed func(class string)) *admission {
	if cfg == nil {
		return nil
	}
	c := *cfg
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4 * shards
	}
	if c.ShardInFlight > 0 && c.ShardQueue <= 0 {
		c.ShardQueue = 2 * c.ShardInFlight
	}
	a := &admission{
		cfg:    c,
		rank:   make(map[string]int),
		ledger: make(map[string]*classCounters),
		onShed: onShed,
	}
	a.classes = append([]obs.Objective(nil), c.Classes...)
	sort.Slice(a.classes, func(i, j int) bool { return a.classes[i].Latency < a.classes[j].Latency })
	for i, o := range a.classes {
		a.rank[o.Class] = i
	}
	if c.ShardInFlight > 0 {
		a.shardSlots = make([]chan struct{}, shards)
		a.shardWait = make([]atomic.Int64, shards)
		for i := range a.shardSlots {
			a.shardSlots[i] = make(chan struct{}, c.ShardInFlight)
		}
	}
	return a
}

// classRank returns the priority rank for class (lowest priority for
// unknown classes).
func (a *admission) classRank(class string) int {
	if r, ok := a.rank[class]; ok {
		return r
	}
	if len(a.classes) == 0 {
		return 0
	}
	return len(a.classes) - 1
}

// counters returns class's ledger, creating it on first use.
func (a *admission) counters(class string) *classCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.ledger[class]
	if c == nil {
		c = &classCounters{}
		a.ledger[class] = c
	}
	return c
}

// predicted returns the EWMA-predicted query latency (0 = unknown).
func (a *admission) predicted() time.Duration {
	if a == nil {
		return 0
	}
	return time.Duration(a.ewmaNS.Load())
}

// Admit decides one query at admission. On acceptance it returns a release
// closure the caller MUST invoke when the query finishes (ok=true feeds
// the latency into the EWMA predictor). On rejection it returns a typed
// *ShedError.
func (a *admission) Admit(ctx context.Context, class string) (release func(ok bool, latency time.Duration), err error) {
	if a == nil {
		return func(bool, time.Duration) {}, nil
	}
	cc := a.counters(class)
	cc.offered.Add(1)

	shed := func(reason string, retryAfter time.Duration) error {
		cc.shed.Add(1)
		if a.onShed != nil {
			a.onShed(class)
		}
		if retryAfter < time.Second {
			retryAfter = time.Second
		}
		return &ShedError{Class: class, Reason: reason, RetryAfter: retryAfter}
	}

	predicted := a.predicted()
	// limit is the in-flight count at which this class stops being
	// admitted: rank r of R keeps only the top (R-r)/R of capacity, so the
	// loosest class sheds first and the tightest keeps the full budget.
	limit := int64(a.cfg.MaxInFlight)
	if n := len(a.classes); n > 0 {
		limit = max(1, int64(a.cfg.MaxInFlight*(n-a.classRank(class))/n))
	}
	var late time.Duration
	if dl, ok := ctx.Deadline(); ok && predicted > 0 {
		late = predicted - time.Until(dl)
	}
	// The slot is taken by compare-and-swap against the value the checks
	// read, so no interleaving of admissions can pass limit; a lost race
	// re-decides against the count it lost to.
	for {
		cur := a.inFlight.Load()
		switch {
		case cur >= int64(a.cfg.MaxInFlight):
			return nil, shed(ShedCapacity, predicted)
		case cur >= limit:
			return nil, shed(ShedPriority, predicted)
		case late > 0:
			return nil, shed(ShedDeadline, late)
		}
		if a.inFlight.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	cc.accepted.Add(1)
	return func(ok bool, latency time.Duration) {
		a.inFlight.Add(-1)
		if !ok || latency <= 0 {
			return
		}
		// ewma = (3*prev + observed) / 4, seeded by the first observation.
		for {
			prev := a.ewmaNS.Load()
			next := int64(latency)
			if prev > 0 {
				next = (3*prev + int64(latency)) / 4
			}
			if a.ewmaNS.CompareAndSwap(prev, next) {
				return
			}
		}
	}, nil
}

// acquireShard takes one of shard's sub-query slots, to be returned with
// releaseShard. With queue set the caller waits its turn behind at most
// ShardQueue others; without it only a slot that is free right now will do.
// A full queue (or no free slot) is an error at once — the router's own
// back-pressure, not the shard's fault — so the dispatcher moves the
// partition to a less loaded replica instead of queueing without bound.
func (a *admission) acquireShard(ctx context.Context, shard int, queue bool) error {
	if a == nil || a.cfg.ShardInFlight <= 0 {
		return nil
	}
	if !queue {
		select {
		case a.shardSlots[shard] <- struct{}{}:
			return nil
		default:
			return fmt.Errorf("shard %d: no free sub-query slot", shard)
		}
	}
	if a.shardWait[shard].Add(1) > int64(a.cfg.ShardQueue) {
		a.shardWait[shard].Add(-1)
		return fmt.Errorf("shard %d: sub-query queue full", shard)
	}
	defer a.shardWait[shard].Add(-1)
	select {
	case a.shardSlots[shard] <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseShard returns the slot a successful acquireShard took.
func (a *admission) releaseShard(shard int) {
	if a != nil && a.cfg.ShardInFlight > 0 {
		<-a.shardSlots[shard]
	}
}

// Stats snapshots every class ledger, sorted by priority rank then name.
func (a *admission) Stats() []AdmissionStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]AdmissionStats, 0, len(a.ledger))
	for class, c := range a.ledger {
		out = append(out, AdmissionStats{
			Class:    class,
			Rank:     a.classRank(class),
			Offered:  c.offered.Load(),
			Accepted: c.accepted.Load(),
			Shed:     c.shed.Load(),
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Class < out[j].Class
	})
	return out
}
