package harness

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/kernel"
	"accelscore/internal/router"
)

// TestMain doubles as the helper process for the fleet tests: re-executed
// with HARNESS_HELPER set, the test binary plays a server that Start
// launches (`-addr host:port` is its first argument pair).
func TestMain(m *testing.M) {
	switch os.Getenv("HARNESS_HELPER") {
	case "":
		os.Exit(m.Run())
	case "exit":
		fmt.Fprintln(os.Stderr, "helper: cannot open data directory: permission denied")
		os.Exit(3)
	case "slow-ready":
		// /healthz answers 503 until the process has been up 150ms.
		ready := time.Now().Add(150 * time.Millisecond)
		http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			if time.Now().Before(ready) {
				http.Error(w, "recovering", http.StatusServiceUnavailable)
			}
		})
		fmt.Fprintln(os.Stderr, http.ListenAndServe(os.Args[2], nil))
		os.Exit(1)
	}
}

func TestStartReportsEarlyExitWithStderr(t *testing.T) {
	t.Setenv("HARNESS_HELPER", "exit")
	t0 := time.Now()
	_, err := Start(os.Args[0])
	if err == nil {
		t.Fatal("Start returned a process that exited at start-up")
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("an immediate exit took %v to report", took)
	}
	if !strings.Contains(err.Error(), "permission denied") || !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("error does not carry the child's stderr and exit status: %v", err)
	}
}

func TestStartWaitsForHealthyThenKillReaps(t *testing.T) {
	t.Setenv("HARNESS_HELPER", "slow-ready")
	t0 := time.Now()
	p, err := Start(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 150*time.Millisecond {
		t.Errorf("Start returned after %v, while /healthz was still answering 503", took)
	}
	resp, err := Client(time.Second).Get(p.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ready process: /healthz = %v, %v", resp, err)
	}
	resp.Body.Close()

	p.Kill()
	select {
	case <-p.exited:
	default:
		t.Fatal("Kill returned before the process was reaped")
	}
	if p.cmd.ProcessState == nil {
		t.Fatal("killed process has no exit state")
	}
	p.Kill() // a second kill is harmless
}

func TestPercentileIsNearestRank(t *testing.T) {
	// sample(n) is n ms..1ms, descending, so Summarize must sort it, and the
	// k-th smallest sample is k ms.
	sample := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond
		}
		return s
	}
	for _, tc := range []struct{ n, p50, p95, p99 time.Duration }{
		{1, 1, 1, 1}, {8, 4, 8, 8}, {10, 5, 10, 10}, {100, 50, 95, 99},
	} {
		got := Summarize(sample(int(tc.n)))
		want := Summary{P50: tc.p50 * time.Millisecond, P95: tc.p95 * time.Millisecond, P99: tc.p99 * time.Millisecond}
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Errorf("%d samples: P50/P95/P99 = %v/%v/%v, want the nearest-rank samples %v/%v/%v",
				tc.n, got.P50, got.P95, got.P99, want.P50, want.P95, want.P99)
		}
	}
	sum := Summarize([]time.Duration{5, 1, 4, 2, 3})
	if sum.Mean != 3 || sum.P50 != 3 || sum.P95 != 5 || sum.P99 != 5 {
		t.Errorf("Summarize = %+v", sum)
	}
	if Summarize(nil) != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v", Summarize(nil))
	}
}

func TestVerifyNamesTheFirstMismatch(t *testing.T) {
	want := []int{0, 1, 2, 1, 0}
	if err := Verify(want, []int{0, 1, 2, 1, 0}); err != nil {
		t.Fatalf("identical predictions: %v", err)
	}
	if err := VerifyMerged(want, &router.Merged{Predictions: []int{0, 1, 2, 1, 0}}); err != nil {
		t.Fatalf("identical merge: %v", err)
	}
	for name, tc := range map[string]struct {
		err    error
		reason string
	}{
		"flipped":   {Verify(want, []int{0, 1, 2, 2, 0}), "row 3 predicted 2, oracle 1"},
		"short":     {Verify(want, []int{0, 1, 2}), "3 predictions, oracle has 5"},
		"non-dense": {VerifyMerged(want, &router.Merged{Predictions: want, ScoredRows: []int{0, 1, 2, 3, 4}}), "not dense"},
	} {
		if !errors.Is(tc.err, ErrWrong) || !strings.Contains(tc.err.Error(), tc.reason) {
			t.Errorf("%s: err = %v, want ErrWrong naming %q", name, tc.err, tc.reason)
		}
		if Classify(tc.err) != Wrong {
			t.Errorf("%s: classified %v, want Wrong", name, Classify(tc.err))
		}
	}
	// A partition with no surviving route never reaches VerifyMerged: the
	// router fails the query with a *PartialError, a loud failure.
	partial := &router.PartialError{Missing: []int{1}, Errs: map[int]error{1: errors.New("shard-1 down")}}
	if got := Classify(partial); got != Failed {
		t.Errorf("partial: classified %v, want Failed", got)
	}
}

// TestDriversClassifyEveryOutcomeOnce drives a fake op with a fixed mix of
// outcomes through both loops: every offered operation lands in exactly one
// class, whichever goroutine ran it.
func TestDriversClassifyEveryOutcomeOnce(t *testing.T) {
	mix := []error{
		nil,
		exec.ErrRejected,
		fmt.Errorf("query budget: %w", context.DeadlineExceeded),
		context.Canceled,
		&router.ShedError{},
		fmt.Errorf("%w: row 0", ErrWrong),
		errors.New("shard fell over"),
	}
	const offered = 70 // ten of each
	var calls atomic.Int64
	op := func(_ context.Context, i int) error {
		calls.Add(1)
		return mix[i%len(mix)]
	}
	check := func(name string, run *Run) {
		t.Helper()
		tally := run.Tally()
		sum := 0
		for class, n := range tally {
			sum += n
			if n != offered/len(mix) {
				t.Errorf("%s: %d operations in class %d, want %d", name, n, class, offered/len(mix))
			}
		}
		if sum != offered || len(run.Samples) != offered || int(calls.Swap(0)) != offered {
			t.Errorf("%s: classes sum to %d over %d samples, offered %d", name, sum, len(run.Samples), offered)
		}
		if got := len(run.OKLatencies()); got != tally[OK] {
			t.Errorf("%s: %d ok latencies for %d ok operations", name, got, tally[OK])
		}
	}
	check("closed", Closed(context.Background(), 8, offered, 0, op))
	check("open", Open(context.Background(), make([]time.Duration, offered), time.Second, op))

	// An unbounded closed loop runs until its context ends, and an
	// operation's deadline is its own.
	ctx, cancel := context.WithCancel(context.Background())
	run := Closed(ctx, 4, 0, time.Millisecond, func(ctx context.Context, i int) error {
		if i == 20 {
			cancel()
		}
		if i == 0 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if tally := run.Tally(); len(run.Samples) < 21 || tally[Deadline]+tally[Canceled] != 1 {
		t.Errorf("unbounded loop: %d samples, tally %v", len(run.Samples), tally)
	}
}

// TestOpenDeadlineRunsFromArrival: an open-loop operation's deadline is its
// scheduled arrival plus the deadline, exactly, however late its goroutine
// wakes; so an accepted reply never outlasts its deadline from arrival.
func TestOpenDeadlineRunsFromArrival(t *testing.T) {
	schedule := []time.Duration{0, 0, 1, time.Millisecond, 2 * time.Millisecond, 2*time.Millisecond + 1}
	const deadline = time.Second
	due := make([]time.Time, len(schedule))
	before := time.Now()
	Open(context.Background(), schedule, deadline, func(ctx context.Context, i int) error {
		due[i], _ = ctx.Deadline()
		return nil
	})
	after := time.Now()
	// The run's start is the one instant every deadline counts from.
	start := due[0].Add(-schedule[0] - deadline)
	if start.Before(before) || start.After(after) {
		t.Fatalf("deadline %v implies a start outside the run [%v, %v]", due[0], before, after)
	}
	for i, d := range due {
		if want := start.Add(schedule[i] + deadline); !d.Equal(want) {
			t.Errorf("op %d (arrival +%v): deadline %v, want arrival + %v = %v", i, schedule[i], d, deadline, want)
		}
	}
}

// TestTableRendersFromColumnSpecs checks the two pieces every markdown
// report is built from: a table from column specs, and the "Measured by"
// host line, which names the kernel walk the envelope records.
func TestTableRendersFromColumnSpecs(t *testing.T) {
	var sb strings.Builder
	tbl := NewTable(&sb, []Col{{":arrival", "%s"}, {"load:", "%.2gx"}, {"note", "%v"}})
	tbl.Row("poisson", 0.5, true)
	tbl.Row("burst", 2.0, 3*time.Millisecond)
	want := "| arrival | load | note |\n|:---|---:|---|\n| poisson | 0.5x | true |\n| burst | 2x | 3ms |\n"
	if sb.String() != want {
		t.Errorf("table =\n%s\nwant\n%s", sb.String(), want)
	}
	if host, walk := Host(), "kernel walk "+kernel.Walk(); !strings.HasSuffix(host, walk) {
		t.Errorf("Host() = %q, want it to end with %q", host, walk)
	}
}
