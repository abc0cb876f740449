package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expoLine matches a Prometheus text-format sample line:
// name{labels} value  (labels optional).
var expoLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acc_events_total", "events", "kind", "a")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := r.Counter("acc_events_total", "", "kind", "a"); again != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	if other := r.Counter("acc_events_total", "", "kind", "b"); other == c {
		t.Fatal("different labels returned the same counter")
	}
	g := r.Gauge("acc_depth", "depth")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("acc_x_total", "", "b", "2", "a", "1")
	b := r.Counter("acc_x_total", "", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed instrument identity")
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("acc_ok_total", "")
	mustPanic("type clash", func() { r.Gauge("acc_ok_total", "") })
	mustPanic("bad name", func() { r.Counter("0bad", "") })
	mustPanic("odd labels", func() { r.Counter("acc_l_total", "", "only_key") })
	mustPanic("reserved le", func() { r.Histogram("acc_h", "", nil, "le", "x") })
	mustPanic("negative add", func() { r.Counter("acc_neg_total", "").Add(-1) })
	r.Histogram("acc_h2", "", []float64{1, 2})
	mustPanic("bucket clash", func() { r.Histogram("acc_h2", "", []float64{1, 3}) })
}

// TestPrometheusExposition checks the full text rendering line by line.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("acc_queries_total", "Total queries.", "status", "ok").Add(5)
	r.Counter("acc_queries_total", "", "status", "error").Inc()
	r.Gauge("acc_cache_entries", "Cached models.").Set(3)
	h := r.Histogram("acc_latency_seconds", "Query latency.", []float64{0.001, 0.01, 0.1}, "backend", "FPGA")
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 7} {
		h.Observe(v)
	}
	// A label value that needs escaping.
	r.Counter("acc_esc_total", "", "msg", "a\"b\\c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	types := map[string]string{}
	samples := map[string]float64{}
	var lastFamily string
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name, typ := parts[2], parts[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, name)
			}
			types[name] = typ
			if name <= lastFamily {
				t.Fatalf("line %d: families not sorted: %s after %s", i+1, name, lastFamily)
			}
			lastFamily = name
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		default:
			if !expoLine.MatchString(line) {
				t.Fatalf("line %d: invalid sample line %q", i+1, line)
			}
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(strings.TrimPrefix(line[sp+1:], "+"), 64)
			if err != nil {
				t.Fatalf("line %d: bad value: %v", i+1, err)
			}
			samples[line[:sp]] = v
		}
	}

	want := map[string]float64{
		`acc_queries_total{status="ok"}`:    5,
		`acc_queries_total{status="error"}`: 1,
		`acc_cache_entries`:                 3,
		`acc_esc_total{msg="a\"b\\c\nd"}`:   1,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v", k, samples[k], v)
		}
	}
	if types["acc_latency_seconds"] != "histogram" {
		t.Fatalf("acc_latency_seconds type = %q", types["acc_latency_seconds"])
	}
}

// TestHistogramCumulativeAndConsistent verifies bucket counts are cumulative
// and agree with _sum and _count.
func TestHistogramCumulativeAndConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("acc_h_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	obsValues := []float64{0.0001, 0.001, 0.005, 0.02, 0.5, 2, 3}
	var sum float64
	for _, v := range obsValues {
		h.Observe(v)
		sum += v
	}
	cum := h.CumulativeCounts()
	wantCum := []uint64{2, 3, 4, 5, 7} // <=0.001:2 (0.0001, 0.001 inclusive), <=0.01:+1... +Inf:7
	if len(cum) != len(wantCum) {
		t.Fatalf("cumulative length %d, want %d", len(cum), len(wantCum))
	}
	for i := range cum {
		if cum[i] != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, cum[i], wantCum[i])
		}
		if i > 0 && cum[i] < cum[i-1] {
			t.Errorf("bucket %d not cumulative", i)
		}
	}
	if h.Count() != uint64(len(obsValues)) {
		t.Errorf("count = %d, want %d", h.Count(), len(obsValues))
	}
	if cum[len(cum)-1] != h.Count() {
		t.Errorf("+Inf bucket %d != count %d", cum[len(cum)-1], h.Count())
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Errorf("sum = %v, want %v", h.Sum(), sum)
	}

	// The exposition must render the same cumulative counts.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for i, bound := range []string{"0.001", "0.01", "0.1", "1"} {
		needle := `acc_h_seconds_bucket{le="` + bound + `"} ` + strconv.FormatUint(wantCum[i], 10)
		if !strings.Contains(sb.String(), needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}
	if !strings.Contains(sb.String(), `acc_h_seconds_bucket{le="+Inf"} 7`) {
		t.Error("exposition missing +Inf bucket")
	}
	if !strings.Contains(sb.String(), "acc_h_seconds_count 7") {
		t.Error("exposition missing count")
	}
}
