// Package sim provides the latency-accounting substrate shared by every
// simulated backend.
//
// The paper decomposes an offloaded scoring operation into named components
// (Fig. 6 and §IV-B): host offload overhead O, data-transfer overhead L, and
// accelerator compute C_A, further split into input transfer, FPGA setup,
// scoring, completion signal, result transfer and software overhead
// (Fig. 7). A Timeline is an ordered list of named spans with component
// kinds, plus composition rules for sequential and overlapped execution so
// the FPGA backend can model its record-stream/compute overlap.
//
// Durations are simulated time, not wall-clock: they come from the
// calibrated hardware models in internal/hw, which makes every experiment
// deterministic and machine-independent.
package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind classifies a span according to the paper's O/L/C taxonomy (Fig. 6).
type Kind int

const (
	// KindOverhead is host offload overhead: accelerator setup, completion
	// signaling, software call overhead ("O" in Fig. 6).
	KindOverhead Kind = iota
	// KindTransfer is data movement between host and accelerator ("L").
	KindTransfer
	// KindCompute is time spent actually scoring ("C_H" or "C_A").
	KindCompute
	// KindPipeline is an analytics-pipeline stage outside the scoring
	// operation itself (Python invocation, DBMS<->process copies,
	// pre/post-processing) — the "application tax" of §IV-D.
	KindPipeline
)

// String returns the short label used in breakdown tables.
func (k Kind) String() string {
	switch k {
	case KindOverhead:
		return "overhead"
	case KindTransfer:
		return "transfer"
	case KindCompute:
		return "compute"
	case KindPipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Span is one named component of a simulated operation.
type Span struct {
	Name     string
	Kind     Kind
	Duration time.Duration
}

// Timeline is an ordered collection of spans. The zero value is an empty
// timeline ready to use.
type Timeline struct {
	spans []Span
}

// Add appends a span. Negative durations are clamped to zero so cost models
// can subtract overlapped portions without going negative.
func (t *Timeline) Add(name string, kind Kind, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.spans = append(t.spans, Span{Name: name, Kind: kind, Duration: d})
}

// AddSpan appends a prebuilt span.
func (t *Timeline) AddSpan(s Span) {
	if s.Duration < 0 {
		s.Duration = 0
	}
	t.spans = append(t.spans, s)
}

// Extend appends all spans of other, in order.
func (t *Timeline) Extend(other *Timeline) {
	if other == nil {
		return
	}
	t.spans = append(t.spans, other.spans...)
}

// Spans returns a copy of the spans in insertion order.
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Total returns the sum of all span durations (purely sequential
// interpretation).
func (t *Timeline) Total() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		sum += s.Duration
	}
	return sum
}

// TotalKind returns the summed duration of spans with the given kind.
func (t *Timeline) TotalKind(k Kind) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Kind == k {
			sum += s.Duration
		}
	}
	return sum
}

// Component returns the summed duration of spans with the given name.
func (t *Timeline) Component(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.Duration
		}
	}
	return sum
}

// Overlapped records two phases that run concurrently (e.g. the FPGA's
// record streaming overlapping with scoring, §IV-B item 1). The longer phase
// is charged in full; the shorter appears with zero incremental cost but is
// retained, annotated, for breakdown display.
func (t *Timeline) Overlapped(a, b Span) {
	longer, shorter := a, b
	if b.Duration > a.Duration {
		longer, shorter = b, a
	}
	t.AddSpan(longer)
	t.AddSpan(Span{
		Name:     shorter.Name + " (overlapped)",
		Kind:     shorter.Kind,
		Duration: 0,
	})
}

// Breakdown is an aggregated view of a timeline: one row per component name.
type Breakdown struct {
	Rows  []Span
	Total time.Duration
}

// Aggregate collapses spans with identical names into one row each,
// preserving first-appearance order, and computes the total.
func (t *Timeline) Aggregate() Breakdown {
	index := make(map[string]int)
	var rows []Span
	for _, s := range t.spans {
		if i, ok := index[s.Name]; ok {
			rows[i].Duration += s.Duration
			continue
		}
		index[s.Name] = len(rows)
		rows = append(rows, s)
	}
	return Breakdown{Rows: rows, Total: t.Total()}
}

// String renders an aligned textual breakdown, largest components first,
// with percentages — the format used by accelscore repro for Fig. 7 and Fig. 11.
func (b Breakdown) String() string {
	rows := make([]Span, len(b.Rows))
	copy(rows, b.Rows)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Duration > rows[j].Duration })
	var sb strings.Builder
	width := 0
	for _, r := range rows {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	for _, r := range rows {
		pct := 0.0
		if b.Total > 0 {
			pct = 100 * float64(r.Duration) / float64(b.Total)
		}
		fmt.Fprintf(&sb, "%-*s  %12s  %5.1f%%  [%s]\n", width, r.Name, FormatDuration(r.Duration), pct, r.Kind)
	}
	fmt.Fprintf(&sb, "%-*s  %12s\n", width, "TOTAL", FormatDuration(b.Total))
	return sb.String()
}

// FormatDuration renders a duration with units matched to its magnitude
// (ns/µs/ms/s), mirroring how the paper reports component times that span
// six orders of magnitude.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Throughput returns operations per second for n operations completed in d.
// It returns 0 for non-positive durations.
func Throughput(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// timelineJSON is the serialized form of a Timeline.
type timelineJSON struct {
	Spans []spanJSON `json:"spans"`
	Total int64      `json:"total_ns"`
}

type spanJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	NS   int64  `json:"duration_ns"`
}

// MarshalJSON serializes the timeline for external tooling: each span with
// its kind label and nanosecond duration, plus the total.
func (t *Timeline) MarshalJSON() ([]byte, error) {
	out := timelineJSON{Total: t.Total().Nanoseconds()}
	for _, s := range t.spans {
		out.Spans = append(out.Spans, spanJSON{Name: s.Name, Kind: s.Kind.String(), NS: s.Duration.Nanoseconds()})
	}
	return json.Marshal(out)
}
