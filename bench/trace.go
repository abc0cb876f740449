package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one repetition share a query id; parent names the
// span of the enclosing layer measured on the same repetition.
type span struct {
	workload     string
	name, parent string
	query        int
	start, end   time.Duration // offsets from the recorder's epoch
}

// recorder keeps spans in memory until the benchmark ends. It is used from
// one goroutine: the traced pass is single-threaded.
type recorder struct {
	epoch time.Time
	spans []span
	// workload tags the spans recorded from now on.
	workload string
}

func (r *recorder) add(s span) {
	s.workload = r.workload
	r.spans = append(r.spans, s)
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// measureReps is how often measure calls what it times. It is fixed, so that
// a traced pass leaves the in-process store in the same state on every run
// and the byte counts taken from it repeat exactly.
const measureReps = 15

// measure times fn measureReps times, records one span per call, and returns
// the median duration. before, when non-nil, runs untimed ahead of every call
// to put the layer in the state the workload finds it in.
func (r *recorder) measure(name, parent string, before func() error, fn func() error) (time.Duration, error) {
	durs := make([]float64, measureReps)
	for i := range durs {
		if before != nil {
			if err := before(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		r.add(span{name: name, parent: parent, query: i, start: t0.Sub(r.epoch), end: t1.Sub(r.epoch)})
		durs[i] = float64(t1.Sub(t0))
	}
	return time.Duration(median(durs)), nil
}

// writeChrome writes the spans in Chrome trace-event form (chrome://tracing,
// Perfetto): one process per workload, one lane per layer, the span's parent
// and query id in args.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	// Number workloads and layers in order of first appearance.
	pids, tids := map[string]int{}, map[string]int{}
	var events []event
	for _, s := range r.spans {
		layer := layerOf(s.name)
		if _, ok := pids[s.workload]; !ok {
			pids[s.workload] = len(pids) + 1
			events = append(events, event{Name: "process_name", Ph: "M", PID: pids[s.workload],
				Args: map[string]any{"name": s.workload}})
		}
		if _, ok := tids[layer]; !ok {
			tids[layer] = len(tids) + 1
		}
		events = append(events, event{Name: s.name, Cat: layer, Ph: "X",
			TS: us(s.start), Dur: us(s.end - s.start), PID: pids[s.workload], TID: tids[layer],
			Args: map[string]any{"parent": s.parent, "query": s.query}})
	}
	for _, pid := range pids {
		for layer, tid := range tids {
			events = append(events, event{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": layer}})
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerOf is the module a span or metric belongs to: the name up to its
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
