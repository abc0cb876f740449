package sim

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindOverhead: "overhead",
		KindTransfer: "transfer",
		KindCompute:  "compute",
		KindPipeline: "pipeline",
		Kind(99):     "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestAddAndTotal(t *testing.T) {
	var tl Timeline
	tl.Add("setup", KindOverhead, 5*time.Microsecond)
	tl.Add("score", KindCompute, 4*time.Millisecond)
	tl.Add("result", KindTransfer, 300*time.Microsecond)
	if got := tl.Total(); got != 5*time.Microsecond+4*time.Millisecond+300*time.Microsecond {
		t.Fatalf("Total = %v", got)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	var tl Timeline
	tl.Add("neg", KindCompute, -time.Second)
	tl.AddSpan(Span{Name: "neg2", Kind: KindCompute, Duration: -1})
	if tl.Total() != 0 {
		t.Fatalf("negative durations not clamped: %v", tl.Total())
	}
}

func TestTotalKind(t *testing.T) {
	var tl Timeline
	tl.Add("setup", KindOverhead, time.Microsecond)
	tl.Add("interrupt", KindOverhead, 2*time.Microsecond)
	tl.Add("score", KindCompute, time.Millisecond)
	if got := tl.TotalKind(KindOverhead); got != 3*time.Microsecond {
		t.Fatalf("TotalKind(overhead) = %v", got)
	}
	if got := tl.TotalKind(KindPipeline); got != 0 {
		t.Fatalf("TotalKind(pipeline) = %v, want 0", got)
	}
}

func TestComponentAggregation(t *testing.T) {
	var tl Timeline
	tl.Add("model transfer", KindTransfer, time.Millisecond)
	tl.Add("score", KindCompute, time.Millisecond)
	tl.Add("model transfer", KindTransfer, 2*time.Millisecond)
	if got := tl.Component("model transfer"); got != 3*time.Millisecond {
		t.Fatalf("Component = %v", got)
	}
	agg := tl.Aggregate()
	if len(agg.Rows) != 2 {
		t.Fatalf("Aggregate rows = %d, want 2", len(agg.Rows))
	}
	if agg.Rows[0].Name != "model transfer" || agg.Rows[0].Duration != 3*time.Millisecond {
		t.Fatalf("aggregated row wrong: %+v", agg.Rows[0])
	}
	if agg.Total != tl.Total() {
		t.Fatalf("aggregate total %v != timeline total %v", agg.Total, tl.Total())
	}
}

func TestExtend(t *testing.T) {
	var a, b Timeline
	a.Add("x", KindCompute, time.Second)
	b.Add("y", KindTransfer, time.Second)
	a.Extend(&b)
	a.Extend(nil)
	if len(a.Spans()) != 2 || a.Total() != 2*time.Second {
		t.Fatalf("Extend failed: %v", a.Spans())
	}
}

func TestOverlappedChargesLonger(t *testing.T) {
	var tl Timeline
	tl.Overlapped(
		Span{Name: "record stream", Kind: KindTransfer, Duration: 9 * time.Millisecond},
		Span{Name: "scoring", Kind: KindCompute, Duration: 4 * time.Millisecond},
	)
	if got := tl.Total(); got != 9*time.Millisecond {
		t.Fatalf("overlapped total = %v, want 9ms", got)
	}
	if got := tl.Component("scoring (overlapped)"); got != 0 {
		t.Fatalf("shorter overlapped span should cost 0, got %v", got)
	}
	// Order-independent: swapping arguments gives the same total.
	var tl2 Timeline
	tl2.Overlapped(
		Span{Name: "scoring", Kind: KindCompute, Duration: 4 * time.Millisecond},
		Span{Name: "record stream", Kind: KindTransfer, Duration: 9 * time.Millisecond},
	)
	if tl2.Total() != tl.Total() {
		t.Fatalf("Overlapped not symmetric: %v vs %v", tl2.Total(), tl.Total())
	}
}

func TestSpansIsCopy(t *testing.T) {
	var tl Timeline
	tl.Add("x", KindCompute, time.Second)
	s := tl.Spans()
	s[0].Duration = 0
	if tl.Total() != time.Second {
		t.Fatal("Spans returned aliased storage")
	}
}

func TestBreakdownString(t *testing.T) {
	var tl Timeline
	tl.Add("scoring", KindCompute, 40*time.Millisecond)
	tl.Add("setup", KindOverhead, 5*time.Microsecond)
	out := tl.Aggregate().String()
	if !strings.Contains(out, "scoring") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("breakdown missing rows:\n%s", out)
	}
	// Largest component first.
	if strings.Index(out, "scoring") > strings.Index(out, "setup") {
		t.Fatalf("breakdown not sorted by duration:\n%s", out)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		250 * time.Nanosecond:   "250ns",
		42 * time.Microsecond:   "42.00µs",
		7500 * time.Microsecond: "7.500ms",
		2 * time.Second:         "2.000s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Fatalf("Throughput with zero duration = %v, want 0", got)
	}
	if got := Throughput(1_000_000, 40*time.Millisecond); got != 25_000_000 {
		t.Fatalf("Throughput = %v, want 25M", got)
	}
}

// Property: total equals the sum of per-kind totals for any span set.
func TestTotalPartitionsByKind(t *testing.T) {
	f := func(durs []uint32) bool {
		var tl Timeline
		for i, d := range durs {
			tl.Add("s", Kind(i%4), time.Duration(d))
		}
		var sum time.Duration
		for k := KindOverhead; k <= KindPipeline; k++ {
			sum += tl.TotalKind(k)
		}
		return sum == tl.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalJSON(t *testing.T) {
	var tl Timeline
	tl.Add("scoring", KindCompute, 40*time.Millisecond)
	tl.Add("setup", KindOverhead, 3*time.Microsecond)
	b, err := json.Marshal(&tl)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
			NS   int64  `json:"duration_ns"`
		} `json:"spans"`
		Total int64 `json:"total_ns"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Spans) != 2 || decoded.Total != tl.Total().Nanoseconds() {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Spans[0].Name != "scoring" || decoded.Spans[0].Kind != "compute" {
		t.Fatalf("span 0 = %+v", decoded.Spans[0])
	}
}
