package router

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAdmissionLedgerBalances checks the accounting invariant: offered ==
// accepted + shed, and in-flight returns to zero.
func TestAdmissionLedgerBalances(t *testing.T) {
	a := newAdmission(&AdmissionConfig{MaxInFlight: 2}, 1, nil)
	for i := 0; i < 2; i++ {
		if err := a.Admit(); err != nil {
			t.Fatalf("admit %d under the bound: %v", i, err)
		}
	}
	var se *ShedError
	if err := a.Admit(); !errors.As(err, &se) {
		t.Fatalf("third admit at MaxInFlight=2 returned %v, want a *ShedError", err)
	}
	a.Release()
	a.Release()

	if s := *a.Stats(); s != (AdmissionStats{Offered: 3, Accepted: 2, Shed: 1}) {
		t.Fatalf("ledger %+v, want offered 3 = accepted 2 + shed 1", s)
	}
	if got := a.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after releases, want 0", got)
	}
}

// TestAdmissionNeverExceedsBound races 32 goroutines' admissions at the
// bound: in-flight, sampled by every winner while it holds its slot, must
// never pass it.
func TestAdmissionNeverExceedsBound(t *testing.T) {
	const goroutines, rounds = 32, 200
	for _, tc := range []struct {
		name        string
		maxInFlight int
		bound       int64
	}{
		{"capacity", 1, 1},
		// MaxInFlight 0 is 4 x the shard count (2 here).
		{"default", 0, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmission(&AdmissionConfig{MaxInFlight: tc.maxInFlight}, 2, nil)
			var peak atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if a.Admit() != nil {
							continue
						}
						cur := a.inFlight.Load()
						for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
						}
						runtime.Gosched() // hold the slot across a reschedule
						a.Release()
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

// TestAdmissionConcurrentLedger checks that concurrent admissions and
// releases keep the one ledger balanced and count every admission once.
func TestAdmissionConcurrentLedger(t *testing.T) {
	const goroutines, rounds = 8, 500
	a := newAdmission(&AdmissionConfig{MaxInFlight: 4}, 2, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if a.Admit() == nil {
					a.Release()
				}
			}
		}()
	}
	wg.Wait()
	s := *a.Stats()
	if s.Offered != goroutines*rounds {
		t.Fatalf("offered %d, want %d", s.Offered, goroutines*rounds)
	}
	if s.Accepted+s.Shed != s.Offered || s.Accepted == 0 {
		t.Fatalf("ledger %+v out of balance or admitted nothing", s)
	}
	if got := a.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after drain, want 0", got)
	}
}

// TestAdmissionNilIsNoOp checks a router without admission config admits
// everything.
func TestAdmissionNilIsNoOp(t *testing.T) {
	var a *admission
	if err := a.Admit(); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if a.Stats() != nil {
		t.Fatal("nil admission should report no stats")
	}
}
