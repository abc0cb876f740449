// Package cpuonnx implements the ONNX-Runtime-style CPU scoring engine
// ("CPU_ONNX" and "CPU_ONNX_52th" in the paper's figures): it consumes the
// serialized RFX model blob — deserializing it exactly as the Python
// pipeline's model pre-processing step does — and interprets it per record.
//
// ONNX Runtime's TreeEnsembleClassifier "is not currently optimized for
// batch scoring" (paper §IV-C2 quoting [30]): its session invocation is
// cheap, which makes it the best CPU choice below ~5K records, but its
// per-visit cost is higher than Scikit-learn's, so it loses at batch scale.
package cpuonnx

import (
	"fmt"

	"accelscore/internal/backend"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/model"
	"accelscore/internal/sim"
)

// Engine scores serialized RFX models.
type Engine struct {
	spec    hw.CPUSpec
	threads int
	name    string
}

// New returns an ONNX-style engine with the given intra-op thread count.
// The paper evaluates 1 thread (CPU_ONNX) and 52 threads (CPU_ONNX_52th).
func New(spec hw.CPUSpec, threads int) *Engine {
	if threads <= 0 {
		threads = 1
	}
	name := "CPU_ONNX"
	if threads > 1 {
		name = fmt.Sprintf("CPU_ONNX_%dth", threads)
	}
	return &Engine{spec: spec, threads: threads, name: name}
}

// Name implements backend.Backend.
func (e *Engine) Name() string { return e.name }

// Threads returns the configured intra-op thread count.
func (e *Engine) Threads() int { return e.threads }

// ScoreBlob scores a serialized model blob over the request's data. This is
// the engine's native entry point: it exercises the same
// deserialize-then-interpret path the Python pipeline uses.
func (e *Engine) ScoreBlob(blob []byte, req *backend.Request) (*backend.Result, error) {
	f, err := model.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("cpuonnx: %w", err)
	}
	r := *req
	r.Forest = f
	return e.Score(&r)
}

// Score implements backend.Backend. Session initialization — flattening the
// ensemble into the parallel node arrays the ONNX TreeEnsemble kernels
// iterate over, the work the ONNXInvoke timing constant charges for — and
// the per-record interpretation are the shared flat kernel
// (backend.Request.ScoreKernel); the engine's own part is the timeline.
func (e *Engine) Score(req *backend.Request) (*backend.Result, error) {
	res, err := req.ScoreKernel(e.name, e.threads)
	if err != nil {
		return nil, err
	}
	tl, err := e.Estimate(req.ModelStats(), int64(req.NumScored()))
	if err != nil {
		return nil, err
	}
	res.Timeline.Extend(tl)
	return res, nil
}

// Estimate implements backend.Backend.
func (e *Engine) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	if records < 0 {
		return nil, fmt.Errorf("cpuonnx: negative record count %d", records)
	}
	visits := stats.Visits(records)
	total := e.spec.ONNXScoringTime(visits, stats.Features, e.threads)
	fixed := e.spec.ONNXInvoke
	if e.threads > 1 {
		fixed += e.spec.ONNXPoolSetup
	}
	var tl sim.Timeline
	tl.Add("session invoke", sim.KindOverhead, fixed)
	tl.Add("scoring", sim.KindCompute, total-fixed)
	return &tl, nil
}
