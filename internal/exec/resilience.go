// Resilience policy for the scoring path: one recovery per fault. A query
// whose requested engine faults, hangs past the attempt timeout, or cannot
// meet its deadline degrades to the CPU engine, and the result records why
// — so an injected (or real) accelerator fault costs one query some
// latency, never a wrong answer and rarely an error. The policy mirrors the
// paper's framing: the accelerators are optional throughput devices behind
// O/L/C boundaries; the CPU engine is the always-available baseline, so
// "degrade to CPU and record why" is the correct failure posture for a DBMS
// scoring operator. A fault the CPU engine cannot absorb fails the query,
// and one tier up the router reroutes it to another shard (CodeInternal).

package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"accelscore/internal/faults"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/sched"
)

// fallbackBackend is the engine a degraded query runs on: the CPU engine,
// which every shard has.
const fallbackBackend = "CPU_SKLearn"

// degrades reports whether a query requesting target may degrade to the
// fallback engine: "auto" and default requests resolve in-pipeline (no
// fixed device to degrade from), and the fallback engine itself has nowhere
// further to go.
func degrades(target string) bool {
	return target != "" && !strings.EqualFold(target, "auto") && !strings.EqualFold(target, fallbackBackend)
}

// runResilient runs the query on its requested backend and degrades it to
// the CPU fallback engine when that backend cannot serve it: before
// dispatch when the device's recent run times cannot meet the remaining
// deadline, and after a run that ended in a device fault or a detected hang.
func (e *Executor) runResilient(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	degrade := degrades(req.Backend)
	if dev := sched.DeviceOf(req.Backend); degrade && dev != sched.DeviceCPU && e.deadlineTooTight(ctx, dev) {
		return e.runFallback(ctx, req, "deadline")
	}
	res, err := e.runOn(ctx, req)
	if err == nil || !degrade || ctx.Err() != nil || !faults.Injected(err) {
		// Logical errors (bad model, unsupported class count) would fail on
		// the fallback engine too — only device faults and hangs degrade.
		return res, err
	}
	return e.runFallback(ctx, req, "fault")
}

// runFallback counts the degradation, runs a copy of the query on the
// fallback engine, and annotates the result with the original backend and
// the reason.
func (e *Executor) runFallback(ctx context.Context, req *pipeline.ScoreRequest, reason string) (*pipeline.QueryResult, error) {
	e.noteFallback(req.Backend, reason)
	c := *req
	c.Backend = fallbackBackend
	res, err := e.runOn(ctx, &c)
	if err != nil {
		return nil, err
	}
	res.FallbackFrom, res.FallbackReason = req.Backend, reason
	return res, nil
}

// runOn executes the query once on its backend under the device token. An
// attempt cut short by AttemptTimeout while the query deadline still has
// budget is classified as a device hang, so runResilient degrades a
// silently stuck device like one that faulted.
func (e *Executor) runOn(ctx context.Context, req *pipeline.ScoreRequest) (*pipeline.QueryResult, error) {
	dev := sched.DeviceOf(req.Backend)
	sem, ok := e.devices[dev]
	if !ok {
		return nil, fmt.Errorf("exec: no device limit for %q", dev)
	}
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-sem }()

	actx, acancel := ctx, context.CancelFunc(func() {})
	if e.cfg.AttemptTimeout > 0 {
		actx, acancel = context.WithTimeout(ctx, e.cfg.AttemptTimeout)
	}
	start := time.Now()
	res, err := e.pipe.ExecScoreCtx(actx, req)
	acancel()
	if err == nil {
		e.pace(ctx, start, res)
		e.runTime[dev].Observe(time.Since(start))
		return res, nil
	}
	if actx.Err() != nil && ctx.Err() == nil && !faults.Injected(err) {
		err = fmt.Errorf("exec: %s timed out after %v: %w", req.Backend, e.cfg.AttemptTimeout, faults.ErrDeviceHang)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("exec: %s failed and the query budget expired: %w",
			req.Backend, errors.Join(err, cerr))
	}
	return nil, err
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

// noteFallback counts a graceful degradation decision.
func (e *Executor) noteFallback(from, reason string) {
	if reg := e.pipe.Obs.Metrics(); reg != nil {
		reg.Counter(MetricFallbacksTotal, "Queries degraded to the fallback engine.",
			"from", from, "to", fallbackBackend, "reason", reason).Inc()
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
