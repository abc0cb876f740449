package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/router"
)

// Op is one client operation; i is its index in the run. A nil error is an
// accepted answer; a verification failure is returned wrapped in ErrWrong.
type Op func(ctx context.Context, i int) error

// Outcome is the class of one finished operation. Every operation a driver
// runs lands in exactly one.
type Outcome int

const (
	OK       Outcome = iota
	Rejected         // the executor's admission queue was full
	Deadline         // the operation's deadline expired
	Canceled         // the caller gave up
	Shed             // the router's admission control refused it
	Wrong            // accepted, and different from the oracle (ErrWrong)
	Failed           // any other loud failure
)

// Classify is the one place an operation's error becomes its Outcome.
func Classify(err error) Outcome {
	var shed *router.ShedError
	switch {
	case err == nil:
		return OK
	case errors.Is(err, ErrWrong):
		return Wrong
	case errors.As(err, &shed):
		return Shed
	case errors.Is(err, exec.ErrRejected):
		return Rejected
	case errors.Is(err, context.DeadlineExceeded):
		return Deadline
	case errors.Is(err, context.Canceled):
		return Canceled
	default:
		return Failed
	}
}

// Sample is one finished operation.
type Sample struct {
	I       int
	Latency time.Duration
	Err     error
}

// Run is everything one drive produced. Samples are in no particular order.
type Run struct {
	Samples []Sample
	Wall    time.Duration
}

// Tally counts a run's outcomes, indexed by Outcome; the classes sum to the
// number of operations offered.
type Tally [Failed + 1]int

// Tally classifies every sample once.
func (r *Run) Tally() (t Tally) {
	for _, s := range r.Samples {
		t[Classify(s.Err)]++
	}
	return t
}

// OKLatencies returns the latencies of the accepted operations.
func (r *Run) OKLatencies() []time.Duration {
	lats := make([]time.Duration, 0, len(r.Samples))
	for _, s := range r.Samples {
		if s.Err == nil {
			lats = append(lats, s.Latency)
		}
	}
	return lats
}

// timed runs op under a deadline of deadline after start (0 = none) and
// returns the error.
func timed(ctx context.Context, start time.Time, deadline time.Duration, op Op, i int) error {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(deadline))
		defer cancel()
	}
	return op(ctx, i)
}

// Closed drives op closed-loop: clients goroutines each take the next index
// and run it to completion before taking another, until n operations have
// been issued (n <= 0: no bound) or ctx is done. Latency is the operation's
// own duration.
func Closed(ctx context.Context, clients, n int, deadline time.Duration, op Op) *Run {
	perClient := make([][]Sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if n > 0 && i >= n {
					return
				}
				t0 := time.Now()
				err := timed(ctx, t0, deadline, op, i)
				perClient[c] = append(perClient[c], Sample{I: i, Latency: time.Since(t0), Err: err})
			}
		}()
	}
	wg.Wait()
	run := &Run{Wall: time.Since(start)}
	for _, s := range perClient {
		run.Samples = append(run.Samples, s...)
	}
	return run
}

// Open drives op open-loop: operation i starts at schedule[i] after the
// run's start whether or not earlier ones have finished — arrivals do not
// slow down when the system does. Latency and the deadline run from the
// scheduled arrival, so time spent queued behind a slow system counts.
func Open(ctx context.Context, schedule []time.Duration, deadline time.Duration, op Op) *Run {
	run := &Run{Samples: make([]Sample, len(schedule))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range schedule {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrival := start.Add(at)
			time.Sleep(time.Until(arrival))
			err := timed(ctx, arrival, deadline, op, i)
			run.Samples[i] = Sample{I: i, Latency: time.Since(arrival), Err: err}
		}()
	}
	wg.Wait()
	run.Wall = time.Since(start)
	return run
}
