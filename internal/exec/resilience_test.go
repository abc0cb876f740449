package exec_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/faults"
	"accelscore/internal/pipeline"
	"accelscore/internal/sched"
)

// mustPlan parses a fault plan or fails the test.
func mustPlan(t *testing.T, spec string) []faults.Rule {
	t.Helper()
	rules, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// mustInjector builds an injector from a plan spec or fails the test.
func mustInjector(t *testing.T, seed uint64, spec string) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(seed, mustPlan(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// exposition renders the pipeline registry as Prometheus text.
func exposition(t *testing.T, p *pipeline.Pipeline) string {
	t.Helper()
	var sb strings.Builder
	if err := p.Obs.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRetryRecoversFromTransientFaults: two injected busy faults on the CPU
// engine are absorbed by the bounded retry policy — the query succeeds, the
// result records the attempts, and the retry counter matches.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	p, f, data := newEnv(t, 4, 6, 120)
	p.Faults = exec.WireFaultMetrics(
		mustInjector(t, 7, "CPU_SKLearn:invoke:busy:first=2"), p.Obs.Metrics())
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8, MaxRetries: 2, RetryBackoff: time.Millisecond})

	res, err := e.ExecQuery(scoreSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", res.Retries)
	}
	if res.FallbackFrom != "" {
		t.Fatalf("unexpected fallback from %q", res.FallbackFrom)
	}
	want := f.PredictBatch(data)
	for j := range want {
		if res.Predictions[j] != want[j] {
			t.Fatalf("prediction %d differs after retries", j)
		}
	}
	out := exposition(t, p)
	if !strings.Contains(out, `accelscore_exec_retries_total{backend="CPU_SKLearn"} 2`) {
		t.Fatalf("retries not counted:\n%s", out)
	}
	if !strings.Contains(out, `accelscore_faults_injected_total`) {
		t.Fatalf("injected faults not counted:\n%s", out)
	}
}

// TestFatalFaultFallsBackToCPU: a crash fault is not retryable — the query
// degrades to the CPU engine, still returns correct predictions, and the
// decision is recorded on the result and the fallback counter.
func TestFatalFaultFallsBackToCPU(t *testing.T) {
	p, f, data := newEnv(t, 4, 6, 120)
	p.Faults = mustInjector(t, 7, "FPGA:invoke:crash")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})

	res, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'")
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackFrom != "FPGA" || res.FallbackReason != "fault" {
		t.Fatalf("fallback = (%q, %q), want (FPGA, fault)", res.FallbackFrom, res.FallbackReason)
	}
	if res.Backend != "CPU_SKLearn" {
		t.Fatalf("degraded query ran on %q, want CPU_SKLearn", res.Backend)
	}
	want := f.PredictBatch(data)
	for j := range want {
		if res.Predictions[j] != want[j] {
			t.Fatalf("prediction %d differs after fallback", j)
		}
	}
	out := exposition(t, p)
	if !strings.Contains(out, `accelscore_exec_fallbacks_total{from="FPGA",reason="fault",to="CPU_SKLearn"} 1`) {
		t.Fatalf("fallback not counted:\n%s", out)
	}
}

// TestDeadlineTooTightFallsBackToCPU: the FPGA's recent runs, which the
// executor records itself, each survive an injected 80 ms hang; a query whose
// @timeout is below their mean is degraded to the CPU engine before it
// touches the device, with reason "deadline", and answers exactly as the
// serial pipeline does. The mean the decision used is the device's gauge.
func TestDeadlineTooTightFallsBackToCPU(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "FPGA:compute:hang=80ms:first=3")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
	fpgaSQL := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'"

	for i := 0; i < 3; i++ {
		res, err := e.ExecQuery(fpgaSQL)
		if err != nil {
			t.Fatalf("seeding run %d: %v", i, err)
		}
		if res.Backend != "FPGA" || res.FallbackFrom != "" {
			t.Fatalf("seeding run %d ran on %q (fallback from %q), want FPGA", i, res.Backend, res.FallbackFrom)
		}
	}
	res, err := e.ExecQuery(fpgaSQL + ", @timeout='40ms'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "CPU_SKLearn" || res.FallbackFrom != "FPGA" || res.FallbackReason != "deadline" {
		t.Fatalf("40ms query ran on %q, fallback (%q, %q); want CPU_SKLearn, (FPGA, deadline)",
			res.Backend, res.FallbackFrom, res.FallbackReason)
	}
	want, err := p.ExecQuery(scoreSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != len(want.Predictions) {
		t.Fatalf("%d predictions, serial path %d", len(res.Predictions), len(want.Predictions))
	}
	for j := range want.Predictions {
		if res.Predictions[j] != want.Predictions[j] {
			t.Fatalf("prediction %d differs from the serial path after the deadline fallback", j)
		}
	}
	if out := exposition(t, p); !strings.Contains(out,
		`accelscore_exec_fallbacks_total{from="FPGA",reason="deadline",to="CPU_SKLearn"} 1`) {
		t.Fatalf("deadline fallback not counted:\n%s", out)
	}
	if got := p.Obs.Registry.Gauge(exec.MetricPredictedRunSeconds, "", "device", "fpga").Value(); got < 0.08 {
		t.Fatalf("predicted FPGA run %v s, want the >= 0.08 s mean of the hung runs", got)
	}
}

// TestBreakerOpensThenRecovers drives the FPGA circuit through the full
// closed → open → half-open → closed cycle with a three-crash burst:
// queries during the burst degrade with reason "fault", queries during the
// cooldown degrade with reason "breaker_open" without touching the device,
// and the first probe after the cooldown closes the circuit again.
func TestBreakerOpensThenRecovers(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "FPGA:invoke:crash:first=3")
	e := exec.New(p, exec.Config{
		Workers: 2, QueueDepth: 8,
		MaxRetries:       -1, // isolate the breaker from retry
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
	})
	fpgaSQL := "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA'"

	for i := 0; i < 3; i++ {
		res, err := e.ExecQuery(fpgaSQL)
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
		if res.FallbackReason != "fault" {
			t.Fatalf("burst query %d: reason %q, want fault", i, res.FallbackReason)
		}
	}
	if st := e.BreakerState(sched.DeviceFPGA); st != 2 {
		t.Fatalf("breaker state after burst = %d, want 2 (open)", st)
	}

	res, err := e.ExecQuery(fpgaSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackReason != "breaker_open" {
		t.Fatalf("cooldown query reason = %q, want breaker_open", res.FallbackReason)
	}

	time.Sleep(50 * time.Millisecond) // past the cooldown
	res, err = e.ExecQuery(fpgaSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackFrom != "" || res.Backend != "FPGA" {
		t.Fatalf("probe query ran on %q (fallback from %q), want FPGA directly", res.Backend, res.FallbackFrom)
	}
	if st := e.BreakerState(sched.DeviceFPGA); st != 0 {
		t.Fatalf("breaker state after probe = %d, want 0 (closed)", st)
	}

	out := exposition(t, p)
	for _, want := range []string{
		`accelscore_exec_breaker_transitions_total{device="fpga",to="open"} 1`,
		`accelscore_exec_breaker_transitions_total{device="fpga",to="half_open"} 1`,
		`accelscore_exec_breaker_transitions_total{device="fpga",to="closed"} 1`,
		`accelscore_exec_breaker_state{device="fpga"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestQueryErrorsDoNotTripBreaker: a query that names an unknown model or
// table fails before it reaches a device, so it says nothing about the
// device — a client's typo must not open the CPU circuit and take the shard's
// valid queries down with it. A bad query that arrives as the half-open probe
// releases the slot without closing or re-opening the circuit.
func TestQueryErrorsDoNotTripBreaker(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "CPU_SKLearn:invoke:crash:first=3")
	e := exec.New(p, exec.Config{
		Workers: 2, QueueDepth: 8,
		MaxRetries:       -1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Nanosecond, // an open circuit is due its probe at once
		FallbackBackend:  "none",
	})
	badModel := "EXEC sp_score_model @model='no_such_model', @data='iris', @backend='CPU_SKLearn'"
	badTable := "EXEC sp_score_model @model='iris_rf', @data='no_such_table', @backend='CPU_SKLearn'"
	transitions := func(to string) string {
		return `accelscore_exec_breaker_transitions_total{device="cpu",to="` + to + `"}`
	}

	for _, sql := range []string{badModel, badTable} {
		for i := 0; i < 5; i++ {
			if _, err := e.ExecQuery(sql); err == nil || errors.Is(err, exec.ErrBreakerOpen) {
				t.Fatalf("bad query %d: err = %v, want the query's own error", i, err)
			}
		}
	}
	if st := e.BreakerState(sched.DeviceCPU); st != 0 {
		t.Fatalf("breaker state after ten bad queries = %d, want 0 (closed)", st)
	}
	if out := exposition(t, p); strings.Contains(out, transitions("open")) {
		t.Fatalf("bad queries moved the CPU breaker:\n%s", out)
	}

	// Three real device faults open it; the next query is the probe.
	for i := 0; i < 3; i++ {
		if _, err := e.ExecQuery(scoreSQL); !errors.Is(err, faults.ErrInvokeCrash) {
			t.Fatalf("crash %d: err = %v, want ErrInvokeCrash", i, err)
		}
	}
	if st := e.BreakerState(sched.DeviceCPU); st != 2 {
		t.Fatalf("breaker state after three crashes = %d, want 2 (open)", st)
	}
	if _, err := e.ExecQuery(badModel); err == nil || errors.Is(err, exec.ErrBreakerOpen) {
		t.Fatalf("bad probe: err = %v, want the query's own error", err)
	}
	if st := e.BreakerState(sched.DeviceCPU); st != 1 {
		t.Fatalf("breaker state after a bad probe = %d, want 1 (still half-open)", st)
	}
	if _, err := e.ExecQuery(scoreSQL); err != nil {
		t.Fatalf("valid probe: %v", err)
	}
	if st := e.BreakerState(sched.DeviceCPU); st != 0 {
		t.Fatalf("breaker state after a valid probe = %d, want 0 (closed)", st)
	}
	out := exposition(t, p)
	for _, want := range []string{transitions("open") + " 1", transitions("half_open") + " 1", transitions("closed") + " 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHangDetectionRetriesWithinDeadline: an injected device hang is cut
// short by the per-attempt timeout while the query deadline still has
// budget, classified retryable, and the second attempt succeeds — the
// deadline never fires.
func TestHangDetectionRetriesWithinDeadline(t *testing.T) {
	p, f, data := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "FPGA:compute:hang=200ms:once=1")
	e := exec.New(p, exec.Config{
		Workers: 2, QueueDepth: 8,
		AttemptTimeout: 30 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})

	start := time.Now()
	res, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA', @timeout='500ms'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (one hung attempt)", res.Retries)
	}
	if res.FallbackFrom != "" {
		t.Fatalf("hang should retry on the same device, fell back from %q", res.FallbackFrom)
	}
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Fatalf("query took %v: the attempt timeout did not cut the hang short", elapsed)
	}
	want := f.PredictBatch(data)
	for j := range want {
		if res.Predictions[j] != want[j] {
			t.Fatalf("prediction %d differs after hang retry", j)
		}
	}
}

// TestDeadlineExpiryIsTerminal: with no attempt timeout, a hang longer than
// the query's @timeout surfaces context.DeadlineExceeded and bumps the
// deadline counter.
func TestDeadlineExpiryIsTerminal(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "CPU_SKLearn:compute:hang=300ms")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})

	_, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn', @timeout='50ms'")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	out := exposition(t, p)
	if !strings.Contains(out, exec.MetricDeadlineExceededTotal+" 1") {
		t.Fatalf("deadline expiry not counted:\n%s", out)
	}
}

// TestQueryReasonSurvives: a query that dies inside the engine must read its
// own reason back through every layer that wraps it — a timeout as
// DeadlineExceeded (never Canceled, which serve maps to 499 instead of 504), a
// client hang-up as Canceled — and the matching counter must be the only one
// bumped.
func TestQueryReasonSurvives(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sql     string
		hangUp  time.Duration // cancel the caller's context after this long (0 = never)
		want    error
		not     error
		counter string
		absent  string
	}{
		{name: "timeout", sql: scoreSQLTimeout("30ms"),
			want: context.DeadlineExceeded, not: context.Canceled,
			counter: exec.MetricDeadlineExceededTotal, absent: exec.MetricCanceledTotal},
		{name: "hang-up", sql: scoreSQLTimeout("10s"), hangUp: 30 * time.Millisecond,
			want: context.Canceled, not: context.DeadlineExceeded,
			counter: exec.MetricCanceledTotal, absent: exec.MetricDeadlineExceededTotal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, _ := newEnv(t, 4, 6, 80)
			p.Faults = mustInjector(t, 7, "CPU_SKLearn:compute:hang=2s")
			e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.hangUp > 0 {
				defer time.AfterFunc(tc.hangUp, cancel).Stop()
			}
			_, err := e.Submit(ctx, tc.sql)
			if !errors.Is(err, tc.want) || errors.Is(err, tc.not) {
				t.Fatalf("err = %v, want %v and not %v", err, tc.want, tc.not)
			}
			out := exposition(t, p)
			if !strings.Contains(out, tc.counter+" 1") || strings.Contains(out, tc.absent+" ") {
				t.Fatalf("want only %s bumped:\n%s", tc.counter, out)
			}
		})
	}
}

func scoreSQLTimeout(d string) string {
	return "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn', @timeout='" + d + "'"
}

// TestCanceledSubmissionIsShed: a query arriving with an already-canceled
// context never reaches a worker and is counted as shed and canceled.
func TestCanceledSubmissionIsShed(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 80)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := e.Submit(ctx, scoreSQL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	out := exposition(t, p)
	if !strings.Contains(out, exec.MetricExpiredShedTotal+" 1") {
		t.Fatalf("shed not counted:\n%s", out)
	}
	if !strings.Contains(out, exec.MetricCanceledTotal+" 1") {
		t.Fatalf("cancellation not counted:\n%s", out)
	}
}

// TestCloseDrainsInflightAndStopsAdmission: Close waits for executing
// queries, new submissions fail fast with ErrClosed, and a second Close is
// a no-op.
func TestCloseDrainsInflightAndStopsAdmission(t *testing.T) {
	p, _, _ := newEnv(t, 4, 6, 60)
	bb := newBlocking(t, p)
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8})

	var inflightErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, inflightErr = e.ExecQuery(blockSQL)
	}()
	<-bb.entered // the query is executing inside the backend

	closed := make(chan error, 1)
	go func() { closed <- e.Close(context.Background()) }()

	// Admission must stop immediately, even while Close is still draining.
	// Probe with a fast SELECT (it would complete pre-close) so the probe
	// itself never parks inside the blocking backend.
	deadline := time.After(2 * time.Second)
	for {
		if _, err := e.ExecQuery("SELECT sepal_length FROM iris WHERE sepal_length > 5.0"); errors.Is(err, exec.ErrClosed) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Submit never started returning ErrClosed")
		case <-time.After(time.Millisecond):
		}
	}

	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before the in-flight query finished", err)
	default:
	}

	close(bb.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("in-flight query failed during drain: %v", inflightErr)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestFaultInjectionIsDeterministic: two executors over identical pipelines
// with the same seed and plan produce the identical fault event sequence.
func TestFaultInjectionIsDeterministic(t *testing.T) {
	run := func() []faults.Event {
		p, _, _ := newEnv(t, 4, 6, 80)
		inj := mustInjector(t, 99, "CPU_SKLearn:invoke:busy:p=0.5;CPU_SKLearn:compute:corrupt:every=3")
		p.Faults = inj
		e := exec.New(p, exec.Config{Workers: 1, QueueDepth: 8, RetryBackoff: time.Millisecond, MaxRetries: 3})
		for i := 0; i < 10; i++ {
			// Retry-exhausted errors are fine — they must simply be the SAME
			// errors on both runs, which the event comparison below implies.
			_, _ = e.ExecQuery(scoreSQL)
		}
		return inj.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("plan never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Backend != b[i].Backend ||
			a[i].Boundary != b[i].Boundary || a[i].Kind != b[i].Kind {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
