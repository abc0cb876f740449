// Router admission control: the overload valve in front of the scatter.
// One rule runs at admission, before any shard sees the query: a
// router-wide in-flight bound. A query that finds the bound reached is
// refused at once (503, Retry-After: 1) instead of queueing without bound.
// A saturated shard refuses a sub-query itself, at its executor queue, and
// the dispatcher reroutes it. Priority-class and deadline-aware shedding
// were measured against this one bound and retired (DESIGN §7).
package router

import (
	"sync/atomic"

	"accelscore/internal/obs"
)

// AdmissionConfig tunes the router's admission control. A nil config (on
// router Config) disables admission entirely; a non-nil one bounds the
// router-wide in-flight count.
type AdmissionConfig struct {
	// MaxInFlight is the router-wide concurrent-query bound (0 = 4 x the
	// shard count).
	MaxInFlight int
}

// ShedError is the admission-control rejection: the router was at its
// in-flight bound and refused the query before scattering it. Handlers map
// it to 503 with Retry-After: 1.
type ShedError struct{}

// Error implements error.
func (*ShedError) Error() string {
	return "router: admission rejected (in-flight bound reached), retry after 1s"
}

// AdmissionStats is the admission ledger; Offered == Accepted + Shed always
// holds.
type AdmissionStats struct {
	Offered  uint64 `json:"offered"`
	Accepted uint64 `json:"accepted"`
	Shed     uint64 `json:"shed"`
}

// admission is the router's admission controller. Every method is nil-safe:
// a nil controller admits everything.
type admission struct {
	max            int64
	inFlight       atomic.Int64
	accepted, shed atomic.Uint64
	metrics        *obs.RouterMetrics // nil-safe
}

// newAdmission builds the controller (nil cfg => nil controller).
func newAdmission(cfg *AdmissionConfig, shards int, metrics *obs.RouterMetrics) *admission {
	if cfg == nil {
		return nil
	}
	n := cfg.MaxInFlight
	if n < 1 {
		n = 4 * shards
	}
	return &admission{max: int64(n), metrics: metrics}
}

// Admit takes an in-flight slot, or returns a *ShedError when the bound is
// reached. An admitted caller MUST call Release when the query finishes.
func (a *admission) Admit() error {
	if a == nil {
		return nil
	}
	// The slot is taken by compare-and-swap against the value the check
	// read, so no interleaving of admissions can pass the bound.
	for {
		cur := a.inFlight.Load()
		if cur >= a.max {
			a.shed.Add(1)
			a.metrics.NoteAdmissionShed()
			return &ShedError{}
		}
		if a.inFlight.CompareAndSwap(cur, cur+1) {
			a.accepted.Add(1)
			return nil
		}
	}
}

// Release frees the slot an admitted query held.
func (a *admission) Release() {
	if a != nil {
		a.inFlight.Add(-1)
	}
}

// Stats snapshots the ledger (nil when admission is disabled).
func (a *admission) Stats() *AdmissionStats {
	if a == nil {
		return nil
	}
	acc, shed := a.accepted.Load(), a.shed.Load()
	return &AdmissionStats{Offered: acc + shed, Accepted: acc, Shed: shed}
}
