// Package obs is the production observability layer of the scoring stack: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text-format exposition, and a per-query tracer
// that assigns trace IDs, records wall-clock spans alongside the simulated
// sim.Timeline spans, and exports Chrome trace-event JSON for
// chrome://tracing / Perfetto.
//
// The paper's argument rests on seeing where time goes — the O/L/C
// decomposition of Fig. 6 and the end-to-end stage breakdown of Fig. 11.
// This package turns those per-query return values into continuously
// aggregated, scrape-able telemetry: every query, cache event and backend
// decision becomes a counted, histogrammed, traceable event. The pipeline
// publishes into an Observer when one is attached and stays zero-overhead
// when none is (all entry points are nil-safe).
//
// Everything here is standard library only.
package obs

// Observer bundles the two halves of the observability layer: the metrics
// registry served at /metrics and the tracer behind /debug/queries and
// /debug/trace/<id>. A nil Observer (or nil halves) disables publication;
// a non-nil one measures every stage it brackets (Stage).
type Observer struct {
	// Registry aggregates counters, gauges and histograms.
	Registry *Registry
	// Tracer records one trace per query in a bounded ring.
	Tracer *Tracer
	// Attribution is ignored: every stage an observer brackets is measured
	// (see Stage). The field stays only because the frozen benchmark
	// (bench/layers.go) sets it; ROADMAP 2(b) deletes it at the benchmark's
	// next re-freeze.
	Attribution bool
}

// NewObserver returns an observer with a fresh registry and a
// default-capacity tracer.
func NewObserver() *Observer {
	return &Observer{Registry: NewRegistry(), Tracer: NewTracer(0)}
}

// StartTrace begins a trace on the observer's tracer. It is safe to call on
// a nil observer or one without a tracer; the returned nil *Trace is itself
// a no-op recorder.
func (o *Observer) StartTrace(name string) *Trace {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Start(name)
}

// Metrics returns the observer's registry, or nil when absent — the guard
// call sites use before publishing.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}
