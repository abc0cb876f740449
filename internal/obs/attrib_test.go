package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestReadCostSampleProgresses(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
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
	if ThreadCPUSupported() && cost.CPUTime < 0 {
		t.Errorf("CPUTime = %v, want >= 0", cost.CPUTime)
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
	c := StageCost{Stage: "s", CPUTime: 1500 * time.Microsecond, AllocBytes: 42, AllocObjects: 7, BytesMoved: 99}
	args := c.args()
	if args["cpu_us"] != "1500.0" {
		t.Errorf("cpu_us = %q", args["cpu_us"])
	}
	if args["alloc_bytes"] != "42" || args["alloc_objects"] != "7" || args["bytes_moved"] != "99" {
		t.Errorf("args = %v", args)
	}
	if _, ok := (StageCost{Stage: "s"}).args()["bytes_moved"]; ok {
		t.Errorf("zero BytesMoved should omit bytes_moved arg")
	}
}

func TestTraceSetStageCostsSurfacesInChromeArgs(t *testing.T) {
	tr := NewTracer(4).Start("q")
	end := tr.StartSpan("model scoring")
	end()
	tr.SetStageCosts(Attribution{
		{Stage: "model scoring", CPUTime: time.Millisecond, AllocBytes: 123, AllocObjects: 4},
	})
	tr.Finish()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"alloc_bytes": "123"`) {
		t.Errorf("chrome export missing attribution args:\n%s", out)
	}
	snap := tr.Snapshot()
	if len(snap.Costs) != 1 || snap.Costs[0].AllocBytes != 123 {
		t.Errorf("snapshot costs = %+v", snap.Costs)
	}
}
