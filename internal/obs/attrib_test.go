package obs

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"
)

func TestReadCostSampleProgresses(t *testing.T) {
	before := ReadCostSample()
	// Allocate something measurable and burn a little CPU: twice the 1 MiB
	// asserted below, because the runtime counts a span's allocations only
	// when the span is flushed, so the sample can trail by a few KiB.
	sink := make([][]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	after := ReadCostSample()
	cost := after.Sub(before)
	if cost.AllocBytes < 1024*1024 {
		t.Errorf("AllocBytes = %d, want >= 1 MiB", cost.AllocBytes)
	}
	if cost.AllocObjects == 0 {
		t.Errorf("AllocObjects = 0, want > 0")
	}
}

func TestCostSampleSubClampsWrap(t *testing.T) {
	a := CostSample{CPU: time.Second, AllocBytes: 100, AllocObjects: 10}
	b := CostSample{CPU: 2 * time.Second, AllocBytes: 50, AllocObjects: 5}
	c := b.Sub(a)
	if c.CPUTime != time.Second {
		t.Errorf("CPUTime = %v, want 1s", c.CPUTime)
	}
	if c.AllocBytes != 0 || c.AllocObjects != 0 {
		t.Errorf("wrapped counters should clamp to 0, got bytes=%d objects=%d", c.AllocBytes, c.AllocObjects)
	}
}

func TestAttributionTotal(t *testing.T) {
	a := Attribution{
		{Stage: "a", CPUTime: time.Millisecond, AllocBytes: 10, AllocObjects: 1, BytesMoved: 100},
		{Stage: "b", CPUTime: 2 * time.Millisecond, AllocBytes: 20, AllocObjects: 2, BytesMoved: 200},
	}
	tot := a.Total()
	if tot.Stage != "total" || tot.CPUTime != 3*time.Millisecond || tot.AllocBytes != 30 ||
		tot.AllocObjects != 3 || tot.BytesMoved != 300 {
		t.Errorf("Total() = %+v", tot)
	}
}

func TestStageCostArgs(t *testing.T) {
	c := StageCost{Stage: "s", CPUTime: 1500 * time.Microsecond, AllocBytes: 42, AllocObjects: 7}
	want := map[string]string{"cpu_us": "1500.0", "alloc_bytes": "42", "alloc_objects": "7"}
	if args := c.args(); !maps.Equal(args, want) {
		t.Errorf("args = %v, want %v", args, want)
	}
}

// TestStageCostSurfacesInChromeArgs: a stage recorded through
// Observer.Stage carries its cost on its own span, and the Chrome export
// renders that cost as the span's args.
func TestStageCostSurfacesInChromeArgs(t *testing.T) {
	o := NewObserver()
	tr := o.StartTrace("q")
	cost, err := o.Stage(tr, "model scoring", func() error {
		sink = make([]byte, 64<<10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.StartSpan("input fetch")()
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.WallSpans) != 2 || snap.WallSpans[0].Cost != cost || snap.WallSpans[1].Cost != (StageCost{}) {
		t.Fatalf("wall spans = %+v, stage cost %+v", snap.WallSpans, cost)
	}
	if cost.Stage != "model scoring" || cost.AllocBytes < 64<<10 {
		t.Fatalf("cost = %+v, want the stage's name and its 64 KiB allocation", cost)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := fmt.Sprintf(`"alloc_bytes": "%d"`, cost.AllocBytes); !strings.Contains(out, want) {
		t.Errorf("chrome export missing %s:\n%s", want, out)
	}
	if strings.Count(out, `"cpu_us"`) != 1 {
		t.Errorf("want cost args on the measured span only:\n%s", out)
	}
}

// sink keeps a test allocation on the heap.
var sink []byte

// TestStageRecordsAFailingBody: a stage whose body fails still closes — it
// returns the body's error, records its span with a cost, and publishes its
// CPU observation (exemplar: the trace) and allocation counts.
func TestStageRecordsAFailingBody(t *testing.T) {
	o := NewObserver()
	tr := o.StartTrace("q")
	boom := errors.New("boom")
	cost, err := o.Stage(tr, "model scoring", func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the body's", err)
	}
	if cost.Stage != "model scoring" {
		t.Fatalf("cost = %+v", cost)
	}
	if spans := tr.Snapshot().WallSpans; len(spans) != 1 || spans[0].Name != "model scoring" || spans[0].Cost != cost {
		t.Fatalf("wall spans = %+v, want the failed stage with its cost %+v", spans, cost)
	}
	h := o.Registry.Histogram(MetricStageCPUSeconds, "", DefBuckets, "stage", "model scoring")
	if h.Count() != 1 {
		t.Fatalf("%s count = %d, want 1", MetricStageCPUSeconds, h.Count())
	}
	var expo strings.Builder
	if err := o.Registry.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`# {trace_id="` + tr.ID() + `"}`,
		MetricStageAllocBytesTotal + `{stage="model scoring"}`,
		MetricStageAllocObjectsTotal + `{stage="model scoring"}`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
}

// TestStageUnobservedCostsNothing: on a nil observer a stage is its body,
// unmeasured and allocation-free.
func TestStageUnobservedCostsNothing(t *testing.T) {
	var o *Observer
	calls := 0
	body := func() error { calls++; return nil }
	if cost, err := o.Stage(nil, "s", body); err != nil || cost != (StageCost{}) || calls != 1 {
		t.Fatalf("nil observer stage = %+v, %v after %d calls", cost, err, calls)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = o.Stage(nil, "s", body) }); allocs != 0 {
		t.Fatalf("unobserved stage allocates %v times", allocs)
	}
}
