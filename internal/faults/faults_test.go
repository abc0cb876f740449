package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func mustInjector(t *testing.T, seed uint64, plan string) *Injector {
	t.Helper()
	rules, err := Parse(plan)
	if err != nil {
		t.Fatalf("Parse(%q): %v", plan, err)
	}
	in, err := NewInjector(seed, rules)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return in
}

func TestParsePlan(t *testing.T) {
	rules, err := Parse("GPU_HB:compute:busy:p=0.2; FPGA:transfer:corrupt:every=10;*:invoke:hang=50ms:once=3;GPU_HB:invoke:crash:first=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("got %d rules, want 4", len(rules))
	}
	if rules[0].P != 0.2 || rules[0].Kind != KindBusy || rules[0].Backend != "GPU_HB" {
		t.Errorf("rule 0 mismatch: %+v", rules[0])
	}
	if rules[1].EveryN != 10 || rules[1].Boundary != BoundaryTransfer {
		t.Errorf("rule 1 mismatch: %+v", rules[1])
	}
	if rules[2].Once != 3 || rules[2].HangFor != 50*time.Millisecond || rules[2].Backend != "*" {
		t.Errorf("rule 2 mismatch: %+v", rules[2])
	}
	if rules[3].First != 2 || rules[3].Kind != KindCrash {
		t.Errorf("rule 3 mismatch: %+v", rules[3])
	}
	// Round-trip through String.
	for _, r := range rules {
		back, err := Parse(r.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", r.String(), err)
		}
		if back[0] != r {
			t.Errorf("round trip %q: got %+v want %+v", r.String(), back[0], r)
		}
	}
}

func TestParseRejectsBadPlans(t *testing.T) {
	for _, spec := range []string{
		"",
		"GPU_HB:compute",                  // too few fields
		"GPU_HB:compute:explode",          // unknown kind
		"GPU_HB:warp:busy",                // unknown boundary
		"GPU_HB:compute:busy:p=1.5",       // probability out of range
		"GPU_HB:compute:busy:maybe=1",     // unknown trigger
		"GPU_HB:compute:hang=oops:once=1", // bad duration
		"GPU_HB:compute:busy:every=0",     // zero trigger
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad plan", spec)
		}
	}
}

func TestTypedErrorsAndClassification(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		plan      string
		sentinel  error
		retryable bool
	}{
		{"X:invoke:busy", ErrDeviceBusy, true},
		{"X:transfer:corrupt", ErrTransferCorrupt, true},
		{"X:invoke:crash", ErrInvokeCrash, false},
	}
	for _, c := range cases {
		in := mustInjector(t, 1, c.plan)
		err := in.Check(ctx, "X", BoundaryInvoke)
		if c.sentinel == ErrTransferCorrupt {
			err = in.Check(ctx, "X", BoundaryTransfer)
		}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("plan %q: got %v, want %v", c.plan, err, c.sentinel)
		}
		if Retryable(err) != c.retryable {
			t.Errorf("plan %q: Retryable=%v, want %v", c.plan, Retryable(err), c.retryable)
		}
		if !Injected(err) {
			t.Errorf("plan %q: Injected=false", c.plan)
		}
	}
	if Retryable(errors.New("unrelated")) || Injected(nil) {
		t.Error("misclassified non-fault errors")
	}
}

func TestEveryNthOnceAndFirst(t *testing.T) {
	ctx := context.Background()
	in := mustInjector(t, 1, "X:compute:busy:every=3")
	var fired []int
	for i := 1; i <= 9; i++ {
		if in.Check(ctx, "X", BoundaryCompute) != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Errorf("every=3 fired at %v", fired)
	}

	in = mustInjector(t, 1, "X:compute:busy:once=4")
	fired = nil
	for i := 1; i <= 8; i++ {
		if in.Check(ctx, "X", BoundaryCompute) != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 4 {
		t.Errorf("once=4 fired at %v", fired)
	}

	in = mustInjector(t, 1, "X:compute:crash:first=2")
	fired = nil
	for i := 1; i <= 6; i++ {
		if in.Check(ctx, "X", BoundaryCompute) != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("first=2 fired at %v", fired)
	}
}

func TestMatchingScopesByBackendAndBoundary(t *testing.T) {
	ctx := context.Background()
	in := mustInjector(t, 1, "GPU_HB:transfer:corrupt")
	if err := in.Check(ctx, "FPGA", BoundaryTransfer); err != nil {
		t.Errorf("other backend faulted: %v", err)
	}
	if err := in.Check(ctx, "GPU_HB", BoundaryCompute); err != nil {
		t.Errorf("other boundary faulted: %v", err)
	}
	if err := in.Check(ctx, "GPU_HB", BoundaryTransfer); !errors.Is(err, ErrTransferCorrupt) {
		t.Errorf("matching op did not fault: %v", err)
	}
}

func TestProbabilityDeterministicPerSeed(t *testing.T) {
	ctx := context.Background()
	run := func(seed uint64) []Event {
		in := mustInjector(t, seed, "X:compute:busy:p=0.3")
		for i := 0; i < 200; i++ {
			_ = in.Check(ctx, "X", BoundaryCompute)
		}
		return in.Events()
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times; expected a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := run(8); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced an identical fault sequence")
		}
	}
}

func TestHangIsADelayNotAnError(t *testing.T) {
	in := mustInjector(t, 1, "X:invoke:hang=20ms")
	start := time.Now()
	if err := in.Check(context.Background(), "X", BoundaryInvoke); err != nil {
		t.Fatalf("survivable hang returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("hang only delayed %v, want >= 20ms", d)
	}
}

func TestHangInterruptedByContext(t *testing.T) {
	in := mustInjector(t, 1, "X:invoke:hang=10s")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Check(ctx, "X", BoundaryInvoke)
	if !errors.Is(err, ErrDeviceHang) {
		t.Fatalf("interrupted hang: got %v, want ErrDeviceHang", err)
	}
	if !Retryable(err) {
		t.Error("interrupted hang should be retryable")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hang ignored the context for %v", d)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	if err := in.Check(context.Background(), "X", BoundaryInvoke); err != nil {
		t.Fatal(err)
	}
	if in.Events() != nil {
		t.Error("nil injector reported events")
	}
}

func TestOnFaultHookAndLog(t *testing.T) {
	in := mustInjector(t, 1, "X:compute:busy:every=2")
	var hooked []Event
	in.OnFault = func(ev Event) { hooked = append(hooked, ev) }
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		_ = in.Check(ctx, "X", BoundaryCompute)
	}
	evs := in.Events()
	if len(evs) != 3 || len(hooked) != 3 {
		t.Fatalf("logged %d, hooked %d; want 3 each", len(evs), len(hooked))
	}
	for i, ev := range evs {
		if ev.Seq != i+1 || ev.Backend != "X" || ev.Kind != KindBusy {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
		if hooked[i] != ev {
			t.Errorf("hook/log mismatch at %d: %+v vs %+v", i, hooked[i], ev)
		}
	}
}
