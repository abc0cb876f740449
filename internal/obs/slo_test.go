package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpec(t *testing.T) {
	objs, err := ParseSLOSpec("interactive=50ms,batch=2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	// Sorted by class.
	if objs[0].Class != "batch" || objs[0].Latency != 2*time.Second {
		t.Errorf("objs[0] = %+v", objs[0])
	}
	if objs[1].Class != "interactive" || objs[1].Latency != 50*time.Millisecond {
		t.Errorf("objs[1] = %+v", objs[1])
	}

	// Bare duration = default class.
	objs, err = ParseSLOSpec("100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Class != "default" || objs[0].Latency != 100*time.Millisecond {
		t.Errorf("bare spec = %+v", objs)
	}

	// Empty is no objectives, not an error.
	if objs, err := ParseSLOSpec(""); err != nil || objs != nil {
		t.Errorf("empty spec: objs=%v err=%v", objs, err)
	}

	for _, bad := range []string{"x=", "=50ms", "a=50ms,a=60ms", "a=-5ms", "a=banana"} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("ParseSLOSpec(%q) should fail", bad)
		}
	}
}

func TestFormatSLOSpecRoundTrips(t *testing.T) {
	spec := "batch=2s,interactive=50ms"
	objs, err := ParseSLOSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatSLOSpec(objs); got != spec {
		t.Errorf("round trip: %q != %q", got, spec)
	}
}

func TestSLOEngineClassifyAndGoodput(t *testing.T) {
	reg := NewRegistry()
	objs, _ := ParseSLOSpec("interactive=50ms,batch=2s")
	e := NewSLOEngine(reg, objs, 0.99)
	base := time.Unix(1_700_000_000, 0)
	e.SetNow(func() time.Time { return base })

	if !e.Observe("interactive", 10*time.Millisecond, true) {
		t.Error("fast ok query should be good")
	}
	if e.Observe("interactive", 80*time.Millisecond, true) {
		t.Error("slow query should be bad")
	}
	if e.Observe("interactive", 10*time.Millisecond, false) {
		t.Error("failed query should be bad")
	}
	if !e.Observe("batch", time.Second, true) {
		t.Error("batch within 2s should be good")
	}

	rep := e.Report()
	if len(rep) != 2 {
		t.Fatalf("report classes = %d", len(rep))
	}
	if rep[0].Class != "batch" || rep[0].Total != 1 || rep[0].Good != 1 || rep[0].Goodput != 1 {
		t.Errorf("batch report = %+v", rep[0])
	}
	if rep[1].Class != "interactive" || rep[1].Total != 3 || rep[1].Good != 1 {
		t.Errorf("interactive report = %+v", rep[1])
	}

	// Burn rate over 1m: 2 bad of 3 = 0.667 bad fraction over budget 0.01.
	br := burnRate(e, "interactive", time.Minute)
	if br < 66 || br > 67 {
		t.Errorf("burn rate = %g, want ~66.7", br)
	}
	if br := burnRate(e, "batch", time.Minute); br != 0 {
		t.Errorf("batch burn rate = %g, want 0", br)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`accelscore_slo_events_total{class="interactive",result="bad"} 2`,
		`accelscore_slo_events_total{class="interactive",result="good"} 1`,
		`accelscore_slo_objective_seconds{class="batch"} 2`,
		`accelscore_slo_burn_rate{class="interactive",window="1m"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// burnRate reads one class's burn rate over a window at the engine's clock,
// the value Observe publishes on the burn-rate gauges.
func burnRate(e *SLOEngine, class string, window time.Duration) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.burnRateLocked(e.lookupLocked(class), e.now(), window)
}

func TestSLOEngineWindowExpiry(t *testing.T) {
	objs, _ := ParseSLOSpec("default=10ms")
	e := NewSLOEngine(nil, objs, 0.99)
	base := time.Unix(1_700_000_000, 0)
	now := base
	e.SetNow(func() time.Time { return now })

	e.Observe("default", time.Second, true) // bad (slow)
	if br := burnRate(e, "default", time.Minute); br == 0 {
		t.Error("fresh bad event should burn")
	}
	// Two minutes later the 1m window no longer sees it; the 1h window does.
	now = base.Add(2 * time.Minute)
	if br := burnRate(e, "default", time.Minute); br != 0 {
		t.Errorf("1m burn after expiry = %g, want 0", br)
	}
	if br := burnRate(e, "default", time.Hour); br == 0 {
		t.Error("1h window should still see the event")
	}
}

func TestSLOEngineFallbackClass(t *testing.T) {
	objs, _ := ParseSLOSpec("interactive=50ms")
	e := NewSLOEngine(nil, objs, 0)
	// Unknown class falls back to the only configured class.
	if e.Observe("mystery", time.Second, true) {
		t.Error("slow query should classify bad via single-class fallback")
	}
	if e.target != DefaultSLOTarget {
		t.Errorf("target = %g, want default", e.target)
	}
}

func TestSLOEngineNilSafe(t *testing.T) {
	var e *SLOEngine
	if !e.Observe("x", time.Hour, true) {
		t.Error("nil engine should pass ok through")
	}
	if e.Report() != nil {
		t.Error("nil engine accessors should be zero")
	}
	if NewSLOEngine(NewRegistry(), nil, 0.99) != nil {
		t.Error("no objectives should yield nil engine")
	}
}
