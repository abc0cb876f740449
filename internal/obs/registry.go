package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter. Negative deltas panic: a decreasing counter is
// a programming error that would corrupt rate() queries downstream.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter cannot decrease")
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. Buckets are defined by
// ascending upper bounds; an implicit +Inf bucket catches the rest.
// Exposition follows the Prometheus convention: bucket counts are cumulative
// ("observations less than or equal to the bound"), plus a running sum and a
// total count.
//
// Each bucket additionally retains the LATEST exemplar recorded into it via
// ObserveExemplar — an (observed value, trace ID, timestamp) triple — so a
// scrape showing a populated P99 bucket links straight to an offending
// trace at /debug/trace/<id>. Exemplars are rendered in the OpenMetrics
// suffix syntax on _bucket lines.
type Histogram struct {
	upper     []float64
	counts    []atomic.Uint64 // len(upper)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar]
	sum       atomic.Uint64 // float64 bits
	count     atomic.Uint64
}

// Exemplar ties one histogram observation back to its trace.
type Exemplar struct {
	// Value is the observed value the exemplar represents.
	Value float64
	// TraceID identifies the trace at /debug/trace/<id>.
	TraceID string
	// Time is when the observation happened.
	Time time.Time
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// ObserveExemplar records one value and retains (value, traceID, now) as
// the landing bucket's exemplar, replacing the previous one — latest wins,
// so the slowest recent query is always one click away from its bucket.
// An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Exemplars returns each bucket's retained exemplar (nil where none was
// recorded), one entry per bound plus the +Inf bucket.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CumulativeCounts returns one cumulative count per bound plus the +Inf
// bucket (which equals Count up to concurrent-update skew).
func (h *Histogram) CumulativeCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// DefBuckets are latency buckets in seconds spanning the six orders of
// magnitude the paper's components cover (sub-µs FPGA signals to multi-second
// end-to-end queries).
var DefBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// child is one labeled instrument inside a family.
type child struct {
	labelStr string // canonical rendering: k1="v1",k2="v2" (sorted, escaped)
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// family groups all label combinations of one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64
	metrics map[string]*child
}

// Registry is a concurrency-safe collection of metric families. Instruments
// are created on first use and cached: calling Counter with the same name
// and labels returns the same *Counter, so hot paths may call it per event.
//
// Name or label misuse (invalid characters, odd label pairs, re-registering
// a name under a different type or bucket layout) panics: these are
// programming errors, caught by the first scrape in any test.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for name with the given label pairs
// (key1, value1, key2, value2, ...), creating family and instrument on first
// use. help is recorded on family creation and ignored afterwards.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ch := r.child(name, help, counterType, nil, labels)
	return ch.counter
}

// Gauge returns the gauge for name with the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ch := r.child(name, help, gaugeType, nil, labels)
	return ch.gauge
}

// Histogram returns the histogram for name with the given label pairs.
// buckets (ascending upper bounds, seconds for latency metrics) are fixed by
// the first call for the name; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	ch := r.child(name, help, histogramType, buckets, labels)
	return ch.hist
}

func (r *Registry) child(name, help string, typ metricType, buckets []float64, labels []string) *child {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	labelStr := canonicalLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, metrics: make(map[string]*child)}
		if typ == histogramType {
			if buckets == nil {
				buckets = DefBuckets
			}
			if !sort.Float64sAreSorted(buckets) || len(buckets) == 0 {
				panic(fmt.Sprintf("obs: histogram %q needs ascending non-empty buckets", name))
			}
			fam.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, fam.typ, typ))
	}
	if typ == histogramType && buckets != nil && !equalFloats(fam.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-requested with different buckets", name))
	}
	ch, ok := fam.metrics[labelStr]
	if !ok {
		ch = &child{labelStr: labelStr}
		switch typ {
		case counterType:
			ch.counter = &Counter{}
		case gaugeType:
			ch.gauge = &Gauge{}
		case histogramType:
			ch.hist = &Histogram{
				upper:     fam.buckets,
				counts:    make([]atomic.Uint64, len(fam.buckets)+1),
				exemplars: make([]atomic.Pointer[Exemplar], len(fam.buckets)+1),
			}
		}
		fam.metrics[labelStr] = ch
	}
	return ch
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by label
// string, histograms expanded to cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot every family's children while holding the lock: child()
	// inserts into fam.metrics concurrently, so the maps must not be
	// iterated after release. The *child instruments themselves are
	// immutable after creation (their values are atomics), so rendering
	// from the copied slices outside the lock is safe.
	type famSnap struct {
		fam      *family
		children []*child
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		children := make([]*child, 0, len(f.metrics))
		for _, c := range f.metrics {
			children = append(children, c)
		}
		fams = append(fams, famSnap{fam: f, children: children})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].fam.name < fams[j].fam.name })

	var sb strings.Builder
	for _, snap := range fams {
		fam, children := snap.fam, snap.children
		if fam.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", fam.name, fam.typ)
		sort.Slice(children, func(i, j int) bool { return children[i].labelStr < children[j].labelStr })
		for _, c := range children {
			switch fam.typ {
			case counterType:
				fmt.Fprintf(&sb, "%s%s %s\n", fam.name, braced(c.labelStr), formatFloat(c.counter.Value()))
			case gaugeType:
				fmt.Fprintf(&sb, "%s%s %s\n", fam.name, braced(c.labelStr), formatFloat(c.gauge.Value()))
			case histogramType:
				cum := c.hist.CumulativeCounts()
				exs := c.hist.Exemplars()
				for i, bound := range fam.buckets {
					fmt.Fprintf(&sb, "%s_bucket%s %d%s\n", fam.name,
						braced(joinLabels(c.labelStr, `le="`+formatFloat(bound)+`"`)), cum[i],
						exemplarSuffix(exs[i]))
				}
				fmt.Fprintf(&sb, "%s_bucket%s %d%s\n", fam.name,
					braced(joinLabels(c.labelStr, `le="+Inf"`)), cum[len(cum)-1],
					exemplarSuffix(exs[len(exs)-1]))
				fmt.Fprintf(&sb, "%s_sum%s %s\n", fam.name, braced(c.labelStr), formatFloat(c.hist.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", fam.name, braced(c.labelStr), cum[len(cum)-1])
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// canonicalLabels validates pairs and renders them sorted by key.
func canonicalLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pair count %d", len(pairs)))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if !validLabelName(pairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", pairs[i]))
		}
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(p.v))
		sb.WriteString(`"`)
	}
	return sb.String()
}

func braced(labelStr string) string {
	if labelStr == "" {
		return ""
	}
	return "{" + labelStr + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// exemplarSuffix renders a bucket's exemplar in the OpenMetrics exemplar
// syntax (` # {trace_id="q-000042"} 0.52 1718000000.123`), or "" when the
// bucket has none. The repo's own exposition lint (LintPrometheus) parses
// and validates this suffix; plain 0.0.4 scrapers that stop at the sample
// value must strip it.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
		escapeLabelValue(e.TraceID), formatFloat(e.Value),
		float64(e.Time.UnixMilli())/1e3)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
