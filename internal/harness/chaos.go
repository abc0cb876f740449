package harness

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/faults"
	"accelscore/internal/obs"
)

// DefaultChaosPlan is the acceptance scenario for the resilience layer: 20%
// retryable invocation faults on the accelerator backend plus one forced
// device hang mid-stream. With retries, hang detection and CPU fallback
// armed, every query must still complete. (The FPGA engine stands in for
// the accelerator because the RAPIDS FIL engine cannot score the 3-class
// IRIS models the load harness trains.)
const DefaultChaosPlan = "FPGA:invoke:busy:p=0.2;FPGA:compute:hang=2s:once=5"

// ChaosConfig parameterizes one healthy-vs-chaos comparison run.
type ChaosConfig struct {
	// Load shapes the workload; both runs replay the identical stream.
	Load LoadConfig
	// Exec configures the executor (retries, breaker, fallback, attempt
	// timeout). The same config drives both runs; only the injector differs.
	Exec exec.Config
	// Clients is the closed-loop concurrency (default 8).
	Clients int
	// FaultSpec is the chaos run's fault plan (default DefaultChaosPlan).
	FaultSpec string
	// FaultSeed seeds the injector's RNG streams (default 1).
	FaultSeed uint64
	// Deadline bounds each query via its submission context (0 = none).
	Deadline time.Duration
}

// ChaosRun summarizes one pass over the stream.
type ChaosRun struct {
	Label            string `json:"label"`
	Queries          int    `json:"queries"`
	Ok               int    `json:"ok"`
	DeadlineExceeded int    `json:"deadline_exceeded"`
	Canceled         int    `json:"canceled"`
	Rejected         int    `json:"rejected"`
	OtherErrors      int    `json:"other_errors"`
	// Wrong counts successful queries whose predictions differ from the
	// healthy serial oracle — the invariant chaos must never break.
	Wrong        int           `json:"wrong_predictions"`
	Availability float64       `json:"availability"`
	Wall         time.Duration `json:"wall_ns"`
	Mean         time.Duration `json:"mean_ns"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	// Resilience counter totals read from the run's metrics registry.
	FaultsInjected     float64 `json:"faults_injected"`
	Retries            float64 `json:"retries"`
	Fallbacks          float64 `json:"fallbacks"`
	BreakerTransitions float64 `json:"breaker_transitions"`
}

// String renders one report line.
func (r *ChaosRun) String() string {
	return fmt.Sprintf("%-10s %4d ok %3d dl %3d rej %3d err %3d wrong  avail %5.1f%%  wall %-9v p50 %-10v p99 %-10v faults %.0f retries %.0f fallbacks %.0f",
		r.Label, r.Ok, r.DeadlineExceeded, r.Rejected, r.OtherErrors+r.Canceled, r.Wrong,
		100*r.Availability, r.Wall.Round(time.Millisecond),
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.FaultsInjected, r.Retries, r.Fallbacks)
}

// ChaosReport pairs the healthy baseline with the chaos run over the same
// deterministic stream.
type ChaosReport struct {
	Plan    string    `json:"plan"`
	Seed    uint64    `json:"fault_seed"`
	Healthy *ChaosRun `json:"healthy"`
	Chaos   *ChaosRun `json:"chaos"`
}

// RunChaos replays the stream twice through the resilient executor — once
// healthy, once under the fault plan — and verifies every successful answer
// against a serial healthy oracle. The point of the exercise: injected
// faults may cost latency and (past the deadline) availability, but they
// must never change a prediction that is returned.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.FaultSpec == "" {
		cfg.FaultSpec = DefaultChaosPlan
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
	plan, err := faults.Parse(cfg.FaultSpec)
	if err != nil {
		return nil, fmt.Errorf("harness: chaos plan: %w", err)
	}

	oracle, err := chaosOracle(cfg.Load)
	if err != nil {
		return nil, err
	}

	healthy, err := runChaosPass(cfg, "healthy", nil, oracle)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(cfg.FaultSeed, plan)
	if err != nil {
		return nil, err
	}
	chaos, err := runChaosPass(cfg, "chaos", inj, oracle)
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Plan: cfg.FaultSpec, Seed: cfg.FaultSeed, Healthy: healthy, Chaos: chaos}, nil
}

// chaosOracle computes the expected predictions for every stream query by
// running the workload serially through a fault-free pipeline.
func chaosOracle(load LoadConfig) ([][]int, error) {
	env, err := BuildLoadEnv(load, nil)
	if err != nil {
		return nil, err
	}
	oracle := make([][]int, len(env.Queries))
	for i, q := range env.Queries {
		res, err := env.Pipe.ExecQuery(env.SQLFor(q))
		if err != nil {
			return nil, fmt.Errorf("harness: chaos oracle query %d: %w", i, err)
		}
		oracle[i] = res.Predictions
	}
	return oracle, nil
}

// runChaosPass replays the stream once through a fresh environment.
func runChaosPass(cfg ChaosConfig, label string, inj *faults.Injector, oracle [][]int) (*ChaosRun, error) {
	observer := obs.NewObserver()
	env, err := BuildLoadEnv(cfg.Load, observer)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		env.Pipe.Faults = exec.WireFaultMetrics(inj, observer.Metrics())
	}
	e := exec.New(env.Pipe, cfg.Exec)
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Close(cctx)
	}()

	run := Closed(context.Background(), cfg.Clients, len(env.Queries), cfg.Deadline,
		func(ctx context.Context, i int) error {
			res, err := e.Submit(ctx, env.SQLFor(env.Queries[i]))
			if err != nil {
				return err
			}
			return Verify(oracle[i], res.Predictions)
		})
	t := run.Tally()
	sum := Summarize(run.OKLatencies())
	rep := &ChaosRun{
		Label: label, Queries: len(env.Queries), Wall: run.Wall,
		Ok: t[OK], DeadlineExceeded: t[Deadline], Canceled: t[Canceled], Rejected: t[Rejected],
		OtherErrors: t[Failed] + t[Shed], Wrong: t[Wrong],
		Mean: sum.Mean, P50: sum.P50, P99: sum.P99,
	}
	if rep.Queries > 0 {
		rep.Availability = float64(rep.Ok) / float64(rep.Queries)
	}

	var buf bytes.Buffer
	if err := observer.Metrics().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	text := buf.String()
	rep.FaultsInjected = metricTotal(text, exec.MetricFaultsInjectedTotal)
	rep.Retries = metricTotal(text, exec.MetricRetriesTotal)
	rep.Fallbacks = metricTotal(text, exec.MetricFallbacksTotal)
	rep.BreakerTransitions = metricTotal(text, exec.MetricBreakerTransitionsTotal)
	return rep, nil
}

// metricTotal sums every sample of a counter across its label sets in a
// Prometheus exposition.
func metricTotal(exposition, name string) float64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}
