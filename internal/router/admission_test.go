package router

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelscore/internal/obs"
)

func testClasses(t *testing.T) []obs.Objective {
	t.Helper()
	objs, err := obs.ParseSLOSpec("interactive=25ms,batch=500ms")
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// TestAdmissionLedgerBalances checks the core accounting invariant on every
// class: offered == accepted + shed, and in-flight returns to zero.
func TestAdmissionLedgerBalances(t *testing.T) {
	a := newAdmission(&AdmissionConfig{MaxInFlight: 2}, 1, nil)
	ctx := context.Background()

	rel1, err := a.Admit(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Admit(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Admit(ctx, "")
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedCapacity {
		t.Fatalf("third admit at MaxInFlight=2 returned %v, want capacity shed", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", se.RetryAfter)
	}
	rel1(true, 10*time.Millisecond)
	rel2(false, 0)

	stats := a.Stats()
	if len(stats) != 1 {
		t.Fatalf("%d classes in ledger, want 1", len(stats))
	}
	s := stats[0]
	if s.Offered != 3 || s.Accepted != 2 || s.Shed != 1 {
		t.Fatalf("ledger %+v, want offered 3 = accepted 2 + shed 1", s)
	}
	if got := a.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after releases, want 0", got)
	}
}

// TestAdmissionPrioritySheds fills the tier and checks the loose class
// (batch) sheds while the tight class (interactive) is still admitted.
func TestAdmissionPrioritySheds(t *testing.T) {
	a := newAdmission(&AdmissionConfig{MaxInFlight: 4, Classes: testClasses(t)}, 1, nil)
	ctx := context.Background()

	// batch is rank 1 of 2: its threshold is 4*(2-1)/2 = 2 in-flight.
	for i := 0; i < 2; i++ {
		if _, err := a.Admit(ctx, "batch"); err != nil {
			t.Fatalf("batch admit %d under threshold: %v", i, err)
		}
	}
	_, err := a.Admit(ctx, "batch")
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedPriority {
		t.Fatalf("batch at its threshold returned %v, want priority shed", err)
	}
	// Unknown classes rank with the loosest: shed at the same threshold.
	if _, err := a.Admit(ctx, "mystery"); !errors.As(err, &se) || se.Reason != ShedPriority {
		t.Fatalf("unknown class returned %v, want priority shed", err)
	}
	// interactive keeps the full budget.
	for i := 0; i < 2; i++ {
		if _, err := a.Admit(ctx, "interactive"); err != nil {
			t.Fatalf("interactive admit %d: %v", i, err)
		}
	}
	// Tier full: even interactive sheds now (capacity).
	if _, err := a.Admit(ctx, "interactive"); !errors.As(err, &se) || se.Reason != ShedCapacity {
		t.Fatalf("interactive at MaxInFlight returned %v, want capacity shed", err)
	}
}

// TestAdmissionDeadlineSheds feeds the latency window through the release
// closure and checks a query whose remaining deadline is under the
// prediction is refused immediately with a Retry-After hint, while a roomy
// deadline is admitted; the prediction each decision used is the gauge.
func TestAdmissionDeadlineSheds(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(&AdmissionConfig{MaxInFlight: 8}, 1, obs.NewRouterMetrics(reg))
	predicted := func() float64 { return reg.Gauge(obs.MetricRouterPredictedQuery, "").Value() }
	seed, err := a.Admit(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := predicted(); got != 0 {
		t.Fatalf("predicted %v s before any query finished, want 0", got)
	}
	seed(true, 100*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = a.Admit(ctx, "")
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedDeadline {
		t.Fatalf("10ms deadline vs 100ms prediction returned %v, want deadline shed", err)
	}
	if got := predicted(); got != 0.1 {
		t.Fatalf("shed decided with a published %v s, want 0.1", got)
	}

	roomy, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	rel, err := a.Admit(roomy, "")
	if err != nil {
		t.Fatalf("roomy deadline refused: %v", err)
	}
	rel(true, 50*time.Millisecond)
	// The prediction is the window's mean: (100ms + 50ms)/2 = 75ms.
	if rel, err = a.Admit(roomy, ""); err != nil {
		t.Fatalf("roomy deadline refused: %v", err)
	}
	rel(false, 0)
	if got := predicted(); got != 0.075 {
		t.Fatalf("predicted %v s, want the 0.075 s mean", got)
	}
}

// TestAdmissionNeverExceedsBound races many admissions at one free slot:
// in-flight, sampled by every winner while it holds its slot, must never
// pass the bound — the router-wide one, and a loose class's lower threshold.
func TestAdmissionNeverExceedsBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   AdmissionConfig
		class string
		bound int64
	}{
		{"capacity", AdmissionConfig{MaxInFlight: 1}, "", 1},
		// batch is rank 1 of 2: 4*(2-1)/2 = 2 in-flight.
		{"priority", AdmissionConfig{MaxInFlight: 4, Classes: testClasses(t)}, "batch", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmission(&tc.cfg, 1, nil)
			var peak atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 32; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						rel, err := a.Admit(context.Background(), tc.class)
						if err != nil {
							continue
						}
						cur := a.inFlight.Load()
						for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
						}
						runtime.Gosched() // hold the slot across a reschedule
						rel(false, 0)
					}
				}()
			}
			wg.Wait()
			if got := peak.Load(); got > tc.bound || got < 1 {
				t.Fatalf("peak in-flight %d, want 1..%d", got, tc.bound)
			}
			if got := a.inFlight.Load(); got != 0 {
				t.Fatalf("in-flight %d after releases, want 0", got)
			}
		})
	}
}

// TestAdmissionConcurrentLedger hammers Admit/release from many goroutines
// under -race and checks the ledger still balances exactly.
func TestAdmissionConcurrentLedger(t *testing.T) {
	a := newAdmission(&AdmissionConfig{MaxInFlight: 4, Classes: testClasses(t)}, 2, nil)
	classes := []string{"interactive", "batch"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rel, err := a.Admit(context.Background(), classes[i%2])
				if err == nil {
					rel(i%3 == 0, time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	var offered, accepted, shed uint64
	for _, s := range a.Stats() {
		if s.Offered != s.Accepted+s.Shed {
			t.Fatalf("class %q ledger %+v out of balance", s.Class, s)
		}
		offered += s.Offered
		accepted += s.Accepted
		shed += s.Shed
	}
	if offered != 8*500 {
		t.Fatalf("offered %d, want %d", offered, 8*500)
	}
	if got := a.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after drain, want 0", got)
	}
}

// TestAdmissionNilIsNoOp checks a router without admission config admits
// everything.
func TestAdmissionNilIsNoOp(t *testing.T) {
	var a *admission
	rel, err := a.Admit(context.Background(), "any")
	if err != nil {
		t.Fatal(err)
	}
	rel(true, time.Millisecond)
	if a.Stats() != nil {
		t.Fatal("nil admission should report empty stats")
	}
}
