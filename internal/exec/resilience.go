// Resilience policy for the scoring path: bounded retry with jittered
// backoff for retryable faults, a per-device circuit breaker, and graceful
// degradation to the CPU engine — so an injected (or real) accelerator
// fault costs one query some latency, never a wrong answer and rarely an
// error. The policy mirrors the paper's framing: the accelerators are
// optional throughput devices behind O/L/C boundaries; the CPU engine is
// the always-available baseline, so "degrade to CPU and record why" is the
// correct failure posture for a DBMS scoring operator.

package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"accelscore/internal/faults"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/sched"
)

// ErrBreakerOpen is returned when a device's circuit is open and no
// fallback backend is configured.
var ErrBreakerOpen = errors.New("exec: device circuit breaker open")

// breakerState is a device circuit's position. The numeric values are the
// gauge encoding on /metrics.
type breakerState int

const (
	breakerClosed   breakerState = 0
	breakerHalfOpen breakerState = 1
	breakerOpen     breakerState = 2
)

// String returns the metric-label spelling of the state.
func (s breakerState) String() string {
	switch s {
	case breakerHalfOpen:
		return "half_open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// breaker is a per-device circuit breaker: `threshold` consecutive failures
// open it, an open circuit rejects work for `cooldown`, then admits exactly
// one half-open probe whose outcome closes or re-opens the circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration
	onChange  func(breakerState)

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// newBreaker builds a closed breaker. onChange fires on every state
// transition (under the breaker's lock; keep it cheap).
func newBreaker(threshold int, cooldown time.Duration, onChange func(breakerState)) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, onChange: onChange}
}

// allow reports whether a request may reach the device. Admitting a request
// from the open state (cooldown elapsed) or the half-open state marks it as
// the probe: the caller must follow up with success, failure, or abandon.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.setLocked(breakerHalfOpen)
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// success records a completed run: the circuit closes and the consecutive
// failure count resets.
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != breakerClosed {
		b.setLocked(breakerClosed)
	}
}

// failure records a failed run: a failed half-open probe re-opens the
// circuit immediately; `threshold` consecutive failures open a closed one.
func (b *breaker) failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case breakerHalfOpen:
		b.openedAt = time.Now()
		b.setLocked(breakerOpen)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = time.Now()
			b.setLocked(breakerOpen)
		}
	}
}

// abandon releases a probe slot without an outcome (the run never reached
// the device — e.g. its context expired while queued).
func (b *breaker) abandon() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// current returns the state (for tests and status pages).
func (b *breaker) current() breakerState {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) setLocked(s breakerState) {
	b.state = s
	if b.onChange != nil {
		b.onChange(s)
	}
}

// breakerObserver publishes a device's breaker transitions as the state
// gauge plus a transition counter, so open→half-open→closed sequences are
// visible on /metrics even after the circuit has recovered.
func (e *Executor) breakerObserver(dev sched.Device) func(breakerState) {
	return func(s breakerState) {
		e.publishBreakerState(dev, s)
		if reg := e.pipe.Obs.Metrics(); reg != nil {
			reg.Counter(MetricBreakerTransitionsTotal, "Circuit-breaker state transitions per device.",
				"device", string(dev), "to", s.String()).Inc()
		}
	}
}

// publishBreakerState exports the per-device state gauge.
func (e *Executor) publishBreakerState(dev sched.Device, s breakerState) {
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Gauge(MetricBreakerState, "Circuit state per device (0 closed, 1 half-open, 2 open).",
			"device", string(dev)).Set(float64(s))
	}
}

// BreakerState returns a device's current circuit state as its gauge
// encoding (0 closed, 1 half-open, 2 open).
func (e *Executor) BreakerState(dev sched.Device) int {
	return int(e.breakers[dev].current())
}

// fallbackFor returns the degradation target for a requested backend, or ""
// when degradation does not apply: "auto" and default requests resolve
// in-pipeline (no fixed device to degrade from), and the fallback engine
// itself has nowhere further to go.
func (e *Executor) fallbackFor(target string) string {
	fb := e.cfg.FallbackBackend
	if fb == "" || strings.EqualFold(fb, "none") {
		return ""
	}
	if target == "" || strings.EqualFold(target, "auto") || strings.EqualFold(target, fb) {
		return ""
	}
	return fb
}

// runResilient resolves where the query actually runs — honoring the
// device's circuit breaker and the remaining deadline budget — and degrades
// to the CPU fallback engine when the requested backend cannot serve it.
func (e *Executor) runResilient(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	target := req.Backend
	dev := sched.DeviceOf(target)
	fb := e.fallbackFor(target)

	// Pre-dispatch degradation: a deadline the device's recent run times
	// cannot meet. Checked before the breaker so the decision never
	// consumes a half-open probe slot.
	if fb != "" && dev != sched.DeviceCPU && e.deadlineTooTight(ctx, dev) {
		e.noteFallback(target, fb, "deadline")
		return e.runOn(ctx, req, fb, target, "deadline", nil)
	}
	br := e.breakers[dev]
	if !br.allow() {
		if fb == "" {
			return nil, fmt.Errorf("exec: %s rejected: %w", target, ErrBreakerOpen)
		}
		e.noteFallback(target, fb, "breaker_open")
		return e.runOn(ctx, req, fb, target, "breaker_open", nil)
	}

	res, err := e.runOn(ctx, req, target, "", "", br)
	if err == nil || fb == "" || ctx.Err() != nil || !faults.Injected(err) {
		// Logical errors (bad model, unsupported class count) would fail on
		// the fallback engine too — only device faults and hangs degrade.
		return res, err
	}
	e.noteFallback(target, fb, "fault")
	return e.runOn(ctx, req, fb, target, "fault", nil)
}

// runOn executes the query on one backend under its device token, retrying
// retryable faults with jittered backoff up to MaxRetries. When fbFrom is
// non-empty the run is a degraded copy and the result is annotated with the
// original backend and the reason. br (nil for fallback runs) receives the
// device's circuit accounting: a run that completes is a success, a device
// fault (injected, or the attempt-timeout hang) a failure, and anything else
// — an unknown model or table, a bad parameter, the caller's own deadline —
// says nothing about the device and only releases the probe slot, the same
// ruling the router's dispatcher.settle makes one tier up.
func (e *Executor) runOn(ctx context.Context, req *pipeline.ScoreRequest, target, fbFrom, fbReason string, br *breaker) (*pipeline.QueryResult, error) {
	dev := sched.DeviceOf(target)
	sem, ok := e.devices[dev]
	if !ok {
		br.abandon()
		return nil, fmt.Errorf("exec: no device limit for %q", dev)
	}
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		br.abandon()
		return nil, ctx.Err()
	}
	defer func() { <-sem }()

	if fbFrom != "" {
		c := *req
		c.Backend = target
		req = &c
	}

	for attempt := 0; ; attempt++ {
		actx, acancel := ctx, context.CancelFunc(func() {})
		if e.cfg.AttemptTimeout > 0 {
			actx, acancel = context.WithTimeout(ctx, e.cfg.AttemptTimeout)
		}
		start := time.Now()
		res, err := e.pipe.ExecScoreCtx(actx, req)
		acancel()
		if err == nil {
			br.success()
			e.pace(ctx, start, res)
			e.runTime[dev].Observe(time.Since(start))
			res.Retries = attempt
			res.FallbackFrom = fbFrom
			res.FallbackReason = fbReason
			return res, nil
		}
		if actx.Err() != nil && ctx.Err() == nil && !faults.Injected(err) {
			// The per-attempt timer fired while the query deadline still has
			// budget: classify as a hang so the retry/fallback policy treats
			// a silently stuck device like an explicit busy fault.
			err = fmt.Errorf("exec: attempt %d on %s timed out after %v: %w",
				attempt+1, target, e.cfg.AttemptTimeout, faults.ErrDeviceHang)
		}
		if faults.Injected(err) {
			br.failure()
		} else {
			br.abandon()
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("exec: %s failed and the query budget expired: %w",
				target, errors.Join(err, cerr))
		}
		if !faults.Retryable(err) || attempt >= e.cfg.MaxRetries {
			return nil, err
		}
		e.noteRetry(target)
		if !e.backoff(ctx, attempt) {
			return nil, ctx.Err()
		}
	}
}

// pace holds the query (and its device token) until PaceScale x its
// simulated end-to-end time has elapsed since start, so a paced shard's
// wall-clock tracks the calibrated device model it simulates. The sleep is
// skipped when the real run already took at least that long, and cut short
// by the query context. Device utilization stays honest: the token is held
// for the paced duration, exactly as a real device would be busy.
func (e *Executor) pace(ctx context.Context, start time.Time, res *pipeline.QueryResult) {
	if e.cfg.PaceScale <= 0 {
		return
	}
	wait := time.Duration(float64(res.Timeline.Total())*e.cfg.PaceScale) - time.Since(start)
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// backoff sleeps the jittered exponential delay before the next attempt,
// returning false if the context expires first.
func (e *Executor) backoff(ctx context.Context, attempt int) bool {
	d := e.cfg.RetryBackoff << uint(attempt)
	if maxBackoff := 250 * time.Millisecond; d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	e.rngMu.Lock()
	jitter := 0.5 + e.rng.Float64() // ±50% around the base
	e.rngMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// deadlineTooTight predicts whether the device can finish inside the
// remaining budget: the mean of its recent successful runs — doubled when
// the device is saturated, to cover the run we would queue behind — must
// fit before the deadline. With no history the device gets the benefit of
// the doubt. The mean it decides with is published as the device's
// predicted-run gauge.
func (e *Executor) deadlineTooTight(ctx context.Context, dev sched.Device) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return false
	}
	est := e.runTime[dev].Mean(1)
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Gauge(MetricPredictedRunSeconds, "Run time the deadline fallback predicts per device (recent mean), seconds; 0 = no run yet.",
			"device", string(dev)).Set(est.Seconds())
	}
	if est == 0 {
		return false
	}
	need := est
	if sem := e.devices[dev]; sem != nil && len(sem) == cap(sem) {
		need += est
	}
	return time.Until(dl) < need
}

// noteRetry counts a re-attempt on a backend.
func (e *Executor) noteRetry(backend string) {
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Counter(MetricRetriesTotal, "Scoring re-attempts after retryable faults.",
			"backend", backend).Inc()
	}
}

// noteFallback counts a graceful degradation decision.
func (e *Executor) noteFallback(from, to, reason string) {
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Counter(MetricFallbacksTotal, "Queries degraded to the fallback engine.",
			"from", from, "to", to, "reason", reason).Inc()
	}
}

// WireFaultMetrics publishes every injector firing as the
// accelscore_faults_injected_total counter, chaining any OnFault hook
// already installed. Nil injector or registry is a no-op.
func WireFaultMetrics(inj *faults.Injector, reg *obs.Registry) *faults.Injector {
	if inj == nil || reg == nil {
		return inj
	}
	prev := inj.OnFault
	inj.OnFault = func(ev faults.Event) {
		reg.Counter(MetricFaultsInjectedTotal, "Faults fired by the injector.",
			"backend", ev.Backend, "boundary", string(ev.Boundary), "kind", string(ev.Kind)).Inc()
		if prev != nil {
			prev(ev)
		}
	}
	return inj
}
