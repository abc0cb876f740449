package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO engine: per-class latency objectives with rolling good/bad accounting
// and multi-window burn rates. A query is GOOD when it succeeds within its
// class's objective; everything else (too slow or failed) burns error
// budget. The burn rate is the classic SRE ratio — observed bad fraction
// divided by the budget fraction — so 1.0 means "spending budget exactly as
// provisioned" and 14.4 on the 1h window means "the whole 30-day budget gone
// in two days". Loadgen reports goodput (good/total) per class against the
// same objectives.

// Metric names the SLO engine publishes.
const (
	// MetricSLOEventsTotal counts classified queries {class, result="good"|"bad"}.
	MetricSLOEventsTotal = "accelscore_slo_events_total"
	// MetricSLOObjectiveSeconds gauges each class's configured objective {class}.
	MetricSLOObjectiveSeconds = "accelscore_slo_objective_seconds"
	// MetricSLOBurnRate gauges the error-budget burn rate per class and
	// window {class, window="1m"|"5m"|"1h"}.
	MetricSLOBurnRate = "accelscore_slo_burn_rate"
)

// SLOWindows are the burn-rate windows the engine maintains, shortest first.
// Multi-window alerting pairs a short window (fast detection) with a long
// one (sustained-problem confirmation).
var SLOWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// DefaultSLOTarget is the availability objective (fraction of queries that
// must be good) when the caller does not override it: 99%.
const DefaultSLOTarget = 0.99

// Objective is one latency class: queries of Class must finish within
// Latency to count as good.
type Objective struct {
	// Class names the query class ("interactive", "batch", ...).
	Class string
	// Latency is the class's latency objective.
	Latency time.Duration
}

// ParseSLOSpec parses a "-slo" flag value: comma-separated class=duration
// pairs, e.g. "interactive=50ms,batch=2s". A bare duration ("100ms") is
// shorthand for default=100ms.
func ParseSLOSpec(spec string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Objective
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		class, val := "default", part
		if i := strings.IndexByte(part, '='); i >= 0 {
			class, val = strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
		}
		if class == "" {
			return nil, fmt.Errorf("obs: slo spec %q: empty class", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("obs: slo spec %q: %v", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("obs: slo spec %q: objective must be positive", part)
		}
		if seen[class] {
			return nil, fmt.Errorf("obs: slo spec: duplicate class %q", class)
		}
		seen[class] = true
		out = append(out, Objective{Class: class, Latency: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out, nil
}

// FormatSLOSpec renders objectives back to the flag syntax.
func FormatSLOSpec(objs []Objective) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = o.Class + "=" + o.Latency.String()
	}
	return strings.Join(parts, ",")
}

// sloRing is a per-second ring of good/bad counts spanning the longest
// burn-rate window.
type sloRing struct {
	good []uint64
	bad  []uint64
	// sec[i] is the unix second slot i currently holds; a slot whose second
	// is stale is implicitly zero.
	sec []int64
}

func newSLORing(span time.Duration) *sloRing {
	n := int(span / time.Second)
	if n < 1 {
		n = 1
	}
	return &sloRing{good: make([]uint64, n), bad: make([]uint64, n), sec: make([]int64, n)}
}

func (r *sloRing) add(nowSec int64, good bool) {
	i := int(nowSec % int64(len(r.sec)))
	if r.sec[i] != nowSec {
		r.sec[i] = nowSec
		r.good[i], r.bad[i] = 0, 0
	}
	if good {
		r.good[i]++
	} else {
		r.bad[i]++
	}
}

// window sums the counts of the last span ending at nowSec.
func (r *sloRing) window(nowSec int64, span time.Duration) (good, bad uint64) {
	n := int64(span / time.Second)
	if n < 1 {
		n = 1
	}
	lo := nowSec - n + 1
	for i, s := range r.sec {
		if s >= lo && s <= nowSec {
			good += r.good[i]
			bad += r.bad[i]
		}
	}
	return good, bad
}

// sloClass is one class's state.
type sloClass struct {
	obj  Objective
	ring *sloRing
	// lifetime totals for goodput reporting.
	good, total uint64
}

// SLOEngine classifies finished queries against per-class latency
// objectives and maintains rolling burn-rate gauges. Safe for concurrent
// use. A nil engine is a no-op, so call sites need no guards.
type SLOEngine struct {
	reg    *Registry
	target float64 // availability objective, e.g. 0.99

	mu      sync.Mutex
	classes map[string]*sloClass
	now     func() time.Time // injectable for tests
}

// NewSLOEngine builds an engine over the given objectives publishing into
// reg (nil reg disables metrics but keeps goodput accounting). target is the
// availability objective; <= 0 or >= 1 uses DefaultSLOTarget.
func NewSLOEngine(reg *Registry, objs []Objective, target float64) *SLOEngine {
	if len(objs) == 0 {
		return nil
	}
	if target <= 0 || target >= 1 {
		target = DefaultSLOTarget
	}
	e := &SLOEngine{
		reg: reg, target: target,
		classes: make(map[string]*sloClass, len(objs)),
		now:     time.Now,
	}
	span := SLOWindows[len(SLOWindows)-1]
	for _, o := range objs {
		e.classes[o.Class] = &sloClass{obj: o, ring: newSLORing(span)}
		if reg != nil {
			reg.Gauge(MetricSLOObjectiveSeconds, "Configured per-class latency objective.",
				"class", o.Class).Set(o.Latency.Seconds())
		}
	}
	return e
}

// Observe records one finished query and refreshes the class's burn-rate
// gauges. It returns whether the query was good.
func (e *SLOEngine) Observe(class string, latency time.Duration, ok bool) bool {
	if e == nil {
		return ok
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.lookupLocked(class)
	if c == nil {
		return ok
	}
	good := ok && latency <= c.obj.Latency
	now := e.now()
	c.ring.add(now.Unix(), good)
	c.total++
	if good {
		c.good++
	}
	if e.reg != nil {
		result := "bad"
		if good {
			result = "good"
		}
		e.reg.Counter(MetricSLOEventsTotal, "Queries classified against their latency objective.",
			"class", c.obj.Class, "result", result).Inc()
		for _, w := range SLOWindows {
			e.reg.Gauge(MetricSLOBurnRate, "Error-budget burn rate by class and window.",
				"class", c.obj.Class, "window", windowLabel(w)).
				Set(e.burnRateLocked(c, now, w))
		}
	}
	return good
}

func (e *SLOEngine) burnRateLocked(c *sloClass, now time.Time, window time.Duration) float64 {
	good, bad := c.ring.window(now.Unix(), window)
	total := good + bad
	if total == 0 {
		return 0
	}
	badFrac := float64(bad) / float64(total)
	budget := 1 - e.target
	return badFrac / budget
}

// ClassReport is one class's lifetime goodput accounting.
type ClassReport struct {
	// Class and Objective echo the configuration.
	Class     string        `json:"class"`
	Objective time.Duration `json:"objective_ns"`
	// Total and Good count observed queries and those within objective.
	Total uint64 `json:"total"`
	Good  uint64 `json:"good"`
	// Goodput is Good/Total (0 when no queries were observed).
	Goodput float64 `json:"goodput"`
}

// Report returns lifetime goodput per class, sorted by class name.
func (e *SLOEngine) Report() []ClassReport {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ClassReport, 0, len(e.classes))
	for _, c := range e.classes {
		r := ClassReport{Class: c.obj.Class, Objective: c.obj.Latency, Total: c.total, Good: c.good}
		if c.total > 0 {
			r.Goodput = float64(c.good) / float64(c.total)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// SetNow injects a clock for tests.
func (e *SLOEngine) SetNow(now func() time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
}

// lookupLocked resolves a class with fallback: exact name, then "default",
// then the only class when exactly one is configured.
func (e *SLOEngine) lookupLocked(class string) *sloClass {
	if c, ok := e.classes[class]; ok {
		return c
	}
	if c, ok := e.classes["default"]; ok {
		return c
	}
	if len(e.classes) == 1 {
		for _, c := range e.classes {
			return c
		}
	}
	return nil
}

// windowLabel renders a burn-rate window as a bounded label value ("1m",
// "5m", "1h").
func windowLabel(w time.Duration) string {
	if w%time.Hour == 0 {
		return fmt.Sprintf("%dh", w/time.Hour)
	}
	if w%time.Minute == 0 {
		return fmt.Sprintf("%dm", w/time.Minute)
	}
	return fmt.Sprintf("%ds", w/time.Second)
}
