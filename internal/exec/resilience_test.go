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

// TestFatalFaultFallsBackToCPU: every kind of device fault — busy, corrupt
// or crash — degrades the query to the CPU engine, which still returns
// correct predictions, and the decision is recorded on the result and the
// fallback counter, the fault itself on the injected-faults counter. The
// accelerator is tried once: no fault is retried on it.
func TestFatalFaultFallsBackToCPU(t *testing.T) {
	for _, plan := range []string{"FPGA:invoke:busy", "FPGA:transfer:corrupt", "FPGA:invoke:crash"} {
		rule := strings.Split(plan, ":") // backend, boundary, kind
		t.Run(rule[2], func(t *testing.T) {
			p, f, data := newEnv(t, 4, 6, 120)
			inj := mustInjector(t, 7, plan)
			p.Faults = exec.WireFaultMetrics(inj, p.Obs.Metrics())
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
			if n := len(inj.Events()); n != 1 {
				t.Fatalf("%d faults fired, want 1: the FPGA is tried once", n)
			}
			want := f.PredictBatch(data)
			for j := range want {
				if res.Predictions[j] != want[j] {
					t.Fatalf("prediction %d differs after fallback", j)
				}
			}
			out := exposition(t, p)
			for _, want := range []string{
				`accelscore_exec_fallbacks_total{from="FPGA",reason="fault",to="CPU_SKLearn"} 1`,
				`accelscore_faults_injected_total{backend="FPGA",boundary="` + rule[1] + `",kind="` + rule[2] + `"} 1`,
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("exposition missing %q:\n%s", want, out)
				}
			}
		})
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

// TestHangDegradesWithinDeadline: an injected device hang is cut short by
// the attempt timeout while the query deadline still has budget, and the
// query degrades to the CPU engine with reason "fault" — it answers
// correctly long before the hang would have ended, and the deadline never
// fires.
func TestHangDegradesWithinDeadline(t *testing.T) {
	p, f, data := newEnv(t, 4, 6, 80)
	p.Faults = mustInjector(t, 7, "FPGA:compute:hang=2s:once=1")
	e := exec.New(p, exec.Config{Workers: 2, QueueDepth: 8, AttemptTimeout: 30 * time.Millisecond})

	start := time.Now()
	res, err := e.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='FPGA', @timeout='500ms'")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Fatalf("query took %v: the attempt timeout did not cut the hang short", elapsed)
	}
	if res.FallbackFrom != "FPGA" || res.FallbackReason != "fault" || res.Backend != "CPU_SKLearn" {
		t.Fatalf("hung query ran on %q, fallback (%q, %q); want CPU_SKLearn, (FPGA, fault)",
			res.Backend, res.FallbackFrom, res.FallbackReason)
	}
	want := f.PredictBatch(data)
	for j := range want {
		if res.Predictions[j] != want[j] {
			t.Fatalf("prediction %d differs after the hang fallback", j)
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
		e := exec.New(p, exec.Config{Workers: 1, QueueDepth: 8})
		for i := 0; i < 10; i++ {
			// Faulted queries fail (CPU_SKLearn is the fallback engine, so
			// nothing absorbs them) — they must simply fail the SAME way on
			// both runs, which the event comparison below implies.
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
