// Package backend defines the common interface every scoring engine
// implements — the CPU engines, the GPU libraries, the FPGA inference
// engine, and any user-supplied accelerator — plus the registry that the
// offload advisor enumerates.
//
// Each backend is a functional simulator with a calibrated timing model
// (DESIGN.md "Timing-model philosophy"): Score really computes predictions
// and returns a simulated latency timeline; Estimate returns the same
// timeline for a hypothetical model/record-count without touching data,
// which is what the figure sweeps and the advisor use at 1M-record scale.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/kernel"
	"accelscore/internal/sim"
)

// Request carries one scoring operation.
type Request struct {
	// Forest is the model to score.
	Forest *forest.Forest
	// Data holds the records to score.
	Data *dataset.Dataset
	// Compiled optionally carries Forest pre-lowered to the shared flat
	// kernel form (the pipeline's compiled-model cache populates it on
	// warm queries). CPU engines use it to skip per-query compilation; it
	// MUST be derived from Forest. Nil means the engine compiles itself.
	// Forest.Compile validates the forest, so a request carrying Compiled
	// vouches for Forest's structure and Validate does not re-walk it.
	Compiled *kernel.Compiled
	// Stats optionally carries Forest's structural stats, again populated
	// by the compiled-model cache so engines skip the per-query tree walk
	// ComputeStats performs. It MUST describe Forest. Nil means the engine
	// computes stats itself.
	Stats *forest.Stats
	// Ctx carries the query's deadline and cancellation into the engine.
	// Engines honor it at their O/L/C boundaries via Boundary. Nil means
	// context.Background (no deadline).
	Ctx context.Context
	// Inject, when set, is the fault injector engines consult at the same
	// boundaries — the seam through which chaos runs surface device-busy,
	// transfer-corrupt, crash and hang conditions inside the simulators.
	Inject *faults.Injector
	// Sel, when set, is a pushed-down row filter covering Data's rows: the
	// engine scores only selected rows and Result.Predictions holds their
	// classes densely in ascending row order (Sel.Count() entries). Nil
	// scores every row — the pre-fusion behavior, bit-for-bit.
	Sel *kernel.Selection
	// WantCounts asks the engine for a fused score-then-aggregate: engines
	// that can tally predicted classes without materializing the per-row
	// prediction vector fill Result.ClassCounts and may leave Predictions
	// empty. Engines without a fused path ignore it; the caller falls back
	// to counting Predictions.
	WantCounts bool
}

// Context returns the request's context, defaulting to Background.
func (r *Request) Context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Boundary is the hook engines call when crossing an O/L/C boundary
// (invocation, transfer, compute): it surfaces the request's cancellation
// or deadline first, then consults the fault injector (which may delay —
// an injected hang — or fail the operation). Nil-safe on every field.
func (r *Request) Boundary(engineName string, b faults.Boundary) error {
	ctx := r.Context()
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Inject.Check(ctx, engineName, b)
}

// ModelStats returns the request's structural stats, preferring the
// pre-computed copy a cache-hit request carries.
func (r *Request) ModelStats() forest.Stats {
	if r.Stats != nil {
		return *r.Stats
	}
	return r.Forest.ComputeStats()
}

// Validate checks the request is complete and consistent. The walk over
// every tree node is a property of the model, not of the query: it is paid
// once when a forest is compiled into the model cache, and per call only for
// a request that arrives without the Compiled form.
func (r *Request) Validate() error {
	if r.Forest == nil {
		return fmt.Errorf("backend: request has no model")
	}
	if r.Data == nil {
		return fmt.Errorf("backend: request has no data")
	}
	if r.Compiled == nil {
		if err := r.Forest.Validate(); err != nil {
			return err
		}
	}
	if err := r.Data.Validate(); err != nil {
		return err
	}
	if r.Data.NumFeatures() != r.Forest.NumFeatures {
		return fmt.Errorf("backend: data has %d features, model expects %d",
			r.Data.NumFeatures(), r.Forest.NumFeatures)
	}
	if r.Sel != nil && r.Sel.Len() != r.Data.NumRecords() {
		return fmt.Errorf("backend: selection covers %d rows, data has %d",
			r.Sel.Len(), r.Data.NumRecords())
	}
	return nil
}

// NumScored returns the number of rows the engine will actually score: the
// selection's survivor count when a filter is pushed down, else every
// record. Engines charge their simulated compute on this figure.
func (r *Request) NumScored() int {
	if r.Sel != nil {
		return r.Sel.Count()
	}
	return r.Data.NumRecords()
}

// EachRow calls fn for every row the engine is to score, in ascending order,
// with the row's index into Data and its dense rank (its position in
// Result.Predictions): the selected rows under a pushed-down filter, every
// row — rank equal to index — without one. Per-row engines loop through it
// so the filtered and the plain query are one code path.
func (r *Request) EachRow(fn func(row, rank int)) {
	if r.Sel != nil {
		r.Sel.ForEach(fn)
		return
	}
	for i, n := 0, r.Data.NumRecords(); i < n; i++ {
		fn(i, i)
	}
}

// ScoreKernel is the functional half of a CPU engine's Score, shared by
// every engine that scores through internal/kernel: validate, cross the O
// boundary (library or session invocation), lower the forest unless the
// request carries the Compiled form (pipeline cache hit), cross the C
// boundary, and run the kernel over the rows to score with up to workers
// goroutines. The result holds ClassCounts when the request asked for the
// fused aggregate and Predictions otherwise, and an empty Timeline: what the
// operation costs on the simulated clock is the calling engine's own
// Estimate.
func (r *Request) ScoreKernel(engineName string, workers int) (*Result, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if err := r.Boundary(engineName, faults.BoundaryInvoke); err != nil {
		return nil, err
	}
	compiled := r.Compiled
	if compiled == nil {
		var err error
		if compiled, err = r.Forest.Compile(); err != nil {
			return nil, fmt.Errorf("%s: %w", engineName, err)
		}
	}
	if err := r.Boundary(engineName, faults.BoundaryCompute); err != nil {
		return nil, err
	}
	n, features := r.Data.NumRecords(), r.Data.NumFeatures()
	x := r.Data.X[:n*features]
	res := &Result{}
	if r.WantCounts {
		// Tallied inside the block loop: the per-row prediction vector is
		// never materialized. A boosted ensemble predicts 0 or 1 whatever
		// class count it declares.
		res.ClassCounts = make([]int64, max(r.Forest.NumClasses, 2))
		compiled.PredictAggregate(x, features, n, r.Sel, res.ClassCounts, workers)
	} else {
		// A nil Sel is the all-rows selection; dead rows of a non-nil one
		// are skipped before any tree is walked.
		res.Predictions = make([]int, r.NumScored())
		compiled.PredictSel(x, features, r.Sel, res.Predictions, workers)
	}
	return res, nil
}

// Result is the outcome of one scoring operation.
type Result struct {
	// Predictions holds one class id per scored record: every input record
	// without a pushed-down selection, or the selected rows densely in
	// ascending row order with one. Empty when the engine served a fused
	// aggregate (see ClassCounts).
	Predictions []int
	// ClassCounts, when non-nil, is the fused score-then-aggregate result:
	// ClassCounts[c] counts scored rows predicted as class c. Filled only
	// when the request set WantCounts and the engine supports fusion.
	ClassCounts []int64
	// Timeline is the simulated latency breakdown of the operation.
	Timeline sim.Timeline
}

// Latency is the simulated end-to-end scoring time (the paper's "overall
// model scoring time", §IV-B).
func (r *Result) Latency() time.Duration { return r.Timeline.Total() }

// NumScored returns how many records the result covers: the prediction
// count, or the aggregate total for a fused score-then-count result.
func (r *Result) NumScored() int {
	if len(r.Predictions) == 0 && r.ClassCounts != nil {
		var n int64
		for _, c := range r.ClassCounts {
			n += c
		}
		return int(n)
	}
	return len(r.Predictions)
}

// Throughput returns scored records per second.
func (r *Result) Throughput() float64 {
	return sim.Throughput(r.NumScored(), r.Latency())
}

// Backend is a scoring engine.
type Backend interface {
	// Name is the display name used in figures ("CPU_SKLearn", "FPGA", ...).
	Name() string
	// Score runs the model over the data, returning real predictions and
	// the simulated latency timeline.
	Score(req *Request) (*Result, error)
	// Estimate returns the simulated timeline for scoring records rows of a
	// model with the given structural stats, without computing predictions.
	// Engines return an error for configurations they cannot run (e.g. the
	// FPGA with trees deeper than its PEs support, RAPIDS with more than
	// two classes).
	Estimate(stats forest.Stats, records int64) (*sim.Timeline, error)
}

// Registry is a named collection of backends. It is safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Backend
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[string]Backend)}
}

// Register adds a backend; registering a duplicate name is an error so
// experiment configurations cannot silently shadow each other.
func (r *Registry) Register(b Backend) error {
	if b == nil || b.Name() == "" {
		return fmt.Errorf("backend: cannot register unnamed backend")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.backends[b.Name()]; dup {
		return fmt.Errorf("backend: %q already registered", b.Name())
	}
	r.backends[b.Name()] = b
	return nil
}

// Get returns the backend with the given name.
func (r *Registry) Get(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.backends[name]
	return b, ok
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.backends))
	for n := range r.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
