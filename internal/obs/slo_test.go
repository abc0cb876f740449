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
	e := NewSLOEngine(reg, objs)

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

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`accelscore_slo_events_total{class="interactive",result="bad"} 2`,
		`accelscore_slo_events_total{class="interactive",result="good"} 1`,
		`accelscore_slo_objective_seconds{class="batch"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSLOEngineFallbackClass(t *testing.T) {
	objs, _ := ParseSLOSpec("interactive=50ms")
	e := NewSLOEngine(nil, objs)
	// Unknown class falls back to the only configured class.
	if e.Observe("mystery", time.Second, true) {
		t.Error("slow query should classify bad via single-class fallback")
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
	if NewSLOEngine(NewRegistry(), nil) != nil {
		t.Error("no objectives should yield nil engine")
	}
}
