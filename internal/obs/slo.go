package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO engine: per-class latency objectives with good/bad accounting. A
// query is GOOD when it succeeds within its class's objective; everything
// else (too slow or failed) is BAD. The serving tier publishes the counts;
// loadgen reports goodput (good/total) per class against the same
// objectives.

// Metric names the SLO engine publishes.
const (
	// MetricSLOEventsTotal counts classified queries {class, result="good"|"bad"}.
	MetricSLOEventsTotal = "accelscore_slo_events_total"
	// MetricSLOObjectiveSeconds gauges each class's configured objective {class}.
	MetricSLOObjectiveSeconds = "accelscore_slo_objective_seconds"
)

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

// sloClass is one class's state: its objective and lifetime totals.
type sloClass struct {
	obj         Objective
	good, total uint64
}

// SLOEngine classifies finished queries against per-class latency
// objectives and counts them. Safe for concurrent use. A nil engine is a
// no-op, so call sites need no guards.
type SLOEngine struct {
	reg *Registry

	mu      sync.Mutex
	classes map[string]*sloClass
}

// NewSLOEngine builds an engine over the given objectives publishing into
// reg (nil reg disables metrics but keeps goodput accounting).
func NewSLOEngine(reg *Registry, objs []Objective) *SLOEngine {
	if len(objs) == 0 {
		return nil
	}
	e := &SLOEngine{reg: reg, classes: make(map[string]*sloClass, len(objs))}
	for _, o := range objs {
		e.classes[o.Class] = &sloClass{obj: o}
		if reg != nil {
			reg.Gauge(MetricSLOObjectiveSeconds, "Configured per-class latency objective.",
				"class", o.Class).Set(o.Latency.Seconds())
		}
	}
	return e
}

// Observe records one finished query and returns whether it was good.
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
	}
	return good
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
