package router

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// testClock is a manually advanced clock for the FSM's backoff dwell.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1000, 0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// healthManager builds a manager with deterministic thresholds, no probe
// loop, and no warm hook (tests that need warming pass their own).
func healthManager(warm func(ctx context.Context, shard int)) (*HealthManager, *testClock) {
	clock := newTestClock()
	cfg := HealthConfig{
		FailThreshold:       2,
		QuarantineThreshold: 2,
		PassThreshold:       2,
		RejoinProbes:        2,
		RejoinTrickle:       3,
		TrickleConcurrency:  1,
		QuarantineBackoff:   time.Second,
		MaxBackoff:          4 * time.Second,
		now:                 clock.now,
	}
	return NewHealthManager(2, cfg, nil, warm, nil), clock
}

// fail feeds n consecutive passive failures into shard i.
func fail(m *HealthManager, i, n int) {
	for ; n > 0; n-- {
		m.note(i, false, false)
	}
}

// pass feeds n consecutive passive successes into shard i.
func pass(m *HealthManager, i, n int) {
	for ; n > 0; n-- {
		m.note(i, true, false)
	}
}

// quarantine drives shard i from healthy into quarantine.
func quarantine(t *testing.T, m *HealthManager, i int) {
	t.Helper()
	fail(m, i, 2) // healthy -> degraded
	fail(m, i, 2) // degraded -> quarantined
	if s := m.State(i); s != ShardQuarantined {
		t.Fatalf("state %v after failure burst, want quarantined", s)
	}
}

// TestHealthFSMLegalTransitions walks the full lifecycle: healthy ->
// degraded -> quarantined -> rejoining -> healthy, checking each edge fires
// at exactly its threshold and a quarantined shard refuses traffic.
func TestHealthFSMLegalTransitions(t *testing.T) {
	m, clock := healthManager(nil)

	fail(m, 0, 1)
	if s := m.State(0); s != ShardHealthy {
		t.Fatalf("one failure flipped the state to %v; threshold is 2", s)
	}
	fail(m, 0, 1)
	if s := m.State(0); s != ShardDegraded {
		t.Fatalf("state %v after FailThreshold failures, want degraded", s)
	}
	if !m.acquire(0) {
		t.Fatal("degraded shard must still take traffic")
	}
	m.release(0, signalNone)

	// Degraded recovers through consecutive passes.
	pass(m, 0, 2)
	if s := m.State(0); s != ShardHealthy {
		t.Fatalf("state %v after PassThreshold passes, want healthy", s)
	}

	quarantine(t, m, 0)
	if m.acquire(0) {
		t.Fatal("quarantined shard must refuse traffic")
	}

	// Passive successes (stray in-flight responses) must NOT rehabilitate.
	pass(m, 0, 10)
	if s := m.State(0); s != ShardQuarantined {
		t.Fatalf("passive passes rehabilitated a quarantined shard to %v", s)
	}

	// Probe passes inside the backoff dwell are ignored.
	m.NoteProbe(0, nil)
	m.NoteProbe(0, nil)
	if s := m.State(0); s != ShardQuarantined {
		t.Fatalf("probe passes inside the backoff dwell moved the state to %v", s)
	}

	// After the dwell, RejoinProbes consecutive probe passes rejoin.
	clock.advance(2 * time.Second)
	m.NoteProbe(0, nil)
	m.NoteProbe(0, nil)
	if s := m.State(0); s != ShardRejoining {
		t.Fatalf("state %v after rejoin probes, want rejoining", s)
	}

	// Trickle graduation: RejoinTrickle real successes (probes don't count).
	m.NoteProbe(0, nil)
	for i := 0; i < 3; i++ {
		if !m.acquire(0) {
			t.Fatalf("trickle slot %d refused", i)
		}
		m.release(0, signalPass)
	}
	if s := m.State(0); s != ShardHealthy {
		t.Fatalf("state %v after rejoin trickle, want healthy", s)
	}
	if b := m.Snapshot(0).Backoff; b != 0 {
		t.Fatalf("clean rejoin should reset the backoff penalty, got %v", b)
	}
}

// TestHealthNoFlapUnderAlternatingProbes alternates pass/fail signals and
// checks hysteresis holds: consecutive-signal thresholds mean the state
// never moves, so a jittery shard doesn't oscillate.
func TestHealthNoFlapUnderAlternatingProbes(t *testing.T) {
	m, _ := healthManager(nil)
	for i := 0; i < 50; i++ {
		m.NoteProbe(0, nil)
		m.NoteProbe(0, errors.New("blip"))
	}
	if s := m.State(0); s != ShardHealthy {
		t.Fatalf("alternating probes moved the state to %v", s)
	}
	if n := m.Transitions(0); n != 0 {
		t.Fatalf("%d state transitions under alternating probes, want 0", n)
	}
}

// TestHealthWarmFirstRejoin blocks the warm hook and checks the rejoin
// trickle stays gated until warming completes.
func TestHealthWarmFirstRejoin(t *testing.T) {
	warmGate := make(chan struct{})
	warmed := make(chan struct{})
	m, clock := healthManager(func(ctx context.Context, shard int) {
		close(warmed)
		<-warmGate
	})
	quarantine(t, m, 0)
	clock.advance(2 * time.Second)
	m.NoteProbe(0, nil)
	m.NoteProbe(0, nil)
	if s := m.State(0); s != ShardRejoining {
		t.Fatalf("state %v, want rejoining", s)
	}
	<-warmed // warm started
	if m.acquire(0) {
		t.Fatal("trickle must stay gated while the shard re-warms")
	}
	close(warmGate)
	// The warm goroutine clears the gate asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !m.acquire(0) {
		if time.Now().After(deadline) {
			t.Fatal("trickle never opened after warming finished")
		}
		time.Sleep(time.Millisecond)
	}
	m.release(0, signalPass)
	m.Close()
}

// TestHealthTrickleConcurrencyBound checks a rejoining shard admits at most
// TrickleConcurrency concurrent sub-queries.
func TestHealthTrickleConcurrencyBound(t *testing.T) {
	m, clock := healthManager(nil)
	quarantine(t, m, 0)
	clock.advance(2 * time.Second)
	m.NoteProbe(0, nil)
	m.NoteProbe(0, nil)
	if !m.acquire(0) {
		t.Fatal("first trickle slot refused")
	}
	if m.acquire(0) {
		t.Fatal("second concurrent trickle slot admitted; bound is 1")
	}
	m.release(0, signalPass)
	if !m.acquire(0) {
		t.Fatal("slot should free after release")
	}
	m.release(0, signalPass)
}

// TestHealthRequarantineDoublesBackoff fails a rejoining shard and checks it
// re-quarantines with a doubled (then capped) backoff.
func TestHealthRequarantineDoublesBackoff(t *testing.T) {
	m, clock := healthManager(nil)
	rejoin := func() {
		clock.advance(10 * time.Second)
		m.NoteProbe(0, nil)
		m.NoteProbe(0, nil)
		if s := m.State(0); s != ShardRejoining {
			t.Fatalf("state %v, want rejoining", s)
		}
	}
	quarantine(t, m, 0)
	if b := m.Snapshot(0).Backoff; b != time.Second {
		t.Fatalf("first backoff %v, want 1s", b)
	}
	rejoin()
	m.note(0, false, false) // one trickle failure
	if s := m.State(0); s != ShardQuarantined {
		t.Fatalf("state %v after rejoin failure, want quarantined", s)
	}
	if b := m.Snapshot(0).Backoff; b != 2*time.Second {
		t.Fatalf("backoff %v after one flap, want 2s", b)
	}
	rejoin()
	m.note(0, false, false)
	if b := m.Snapshot(0).Backoff; b != 4*time.Second {
		t.Fatalf("backoff %v after two flaps, want 4s", b)
	}
	rejoin()
	m.note(0, false, false)
	if b := m.Snapshot(0).Backoff; b != 4*time.Second {
		t.Fatalf("backoff %v should cap at MaxBackoff 4s", b)
	}
}

// TestHealthConcurrentSignals hammers the FSM from many goroutines under
// -race: mixed probes, acquires, and releases must leave a consistent
// in-flight ledger.
func TestHealthConcurrentSignals(t *testing.T) {
	m, _ := healthManager(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				shard := i % 2
				if m.acquire(shard) {
					if i%3 == 0 {
						m.release(shard, signalFail)
					} else {
						m.release(shard, signalPass)
					}
				}
				if i%7 == 0 {
					m.NoteProbe(shard, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if n := m.Snapshot(i).InFlight; n != 0 {
			t.Fatalf("shard %d in-flight ledger %d after drain, want 0", i, n)
		}
	}
}
