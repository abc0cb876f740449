package gpu

import (
	"fmt"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/sim"
)

// RAPIDS is the GPU-RAPIDS backend: cuML's Forest Inference Library model.
// "Each thread block on the GPU processes one data sample, and all threads
// in a block cooperate in computing the prediction ... different threads may
// follow divergent evaluation paths down the tree" (paper §IV-C1). Its
// defining costs are the fixed cuDF dataframe conversion (~120 ms, §IV-C2)
// and cache-sensitive traversal throughput.
type RAPIDS struct {
	spec hw.GPUSpec
	// chargeConvert toggles the cuDF conversion cost (ablation: the paper
	// identifies it as the reason RAPIDS loses below ~700K records).
	chargeConvert bool
}

// NewRAPIDS returns a GPU-RAPIDS engine on the given device.
func NewRAPIDS(spec hw.GPUSpec) *RAPIDS {
	return &RAPIDS{spec: spec, chargeConvert: true}
}

// WithoutConvertCost disables the cuDF conversion charge (ablation).
func (r *RAPIDS) WithoutConvertCost() *RAPIDS {
	c := *r
	c.chargeConvert = false
	return &c
}

// Name implements backend.Backend.
func (r *RAPIDS) Name() string { return "GPU_RAPIDS" }

// Score implements backend.Backend. FIL at the paper's time supported
// binary classifiers only, which is why the paper runs RAPIDS on HIGGS but
// not IRIS; requests with more classes are rejected the same way.
func (r *RAPIDS) Score(req *backend.Request) (*backend.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Forest.NumClasses > r.spec.RAPIDSMaxClasses {
		return nil, fmt.Errorf("gpu: RAPIDS FIL supports at most %d classes, model has %d",
			r.spec.RAPIDSMaxClasses, req.Forest.NumClasses)
	}
	// O boundary: cuML invocation + cuDF conversion.
	if err := req.Boundary(r.Name(), faults.BoundaryInvoke); err != nil {
		return nil, err
	}
	// L boundary: the H2D dataframe copy.
	if err := req.Boundary(r.Name(), faults.BoundaryTransfer); err != nil {
		return nil, err
	}
	// C boundary: the FIL traversal kernels.
	if err := req.Boundary(r.Name(), faults.BoundaryCompute); err != nil {
		return nil, err
	}
	scored := req.NumScored()
	preds := make([]int, scored)
	// One thread block per sample; trees cyclically distributed among the
	// block's threads, each walking its trees with early exit. FIL supports
	// both vote (random forest) and margin-sum (boosted) aggregation. A
	// pushed-down filter drops dead rows before any block is scheduled.
	req.EachRow(func(row, rank int) {
		preds[rank] = req.Forest.PredictClass(req.Data.Row(row))
	})

	tl, err := r.Estimate(req.ModelStats(), int64(scored))
	if err != nil {
		return nil, err
	}
	res := &backend.Result{Predictions: preds}
	res.Timeline.Extend(tl)
	return res, nil
}

// Estimate implements backend.Backend.
func (r *RAPIDS) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	if records < 0 {
		return nil, fmt.Errorf("gpu: negative record count %d", records)
	}
	if stats.Classes > r.spec.RAPIDSMaxClasses {
		return nil, fmt.Errorf("gpu: RAPIDS FIL supports at most %d classes, model has %d",
			r.spec.RAPIDSMaxClasses, stats.Classes)
	}
	var tl sim.Timeline
	tl.Add("cuml invoke", sim.KindOverhead, r.spec.RAPIDSInvoke)
	inputBytes := records * int64(stats.Features) * dataset.BytesPerValue
	if r.chargeConvert {
		// NumPy -> cuDF dataframe conversion: the separate pre-processing
		// step the paper measures at ~120 ms.
		tl.Add("cuDF conversion", sim.KindOverhead, r.spec.RAPIDSConvertTime(inputBytes))
	}
	if batches := r.spec.InputBatches(inputBytes); batches > 1 {
		tl.Add("device-memory batching", sim.KindOverhead,
			time.Duration(batches-1)*(r.spec.Link.PerTransfer+r.spec.RAPIDSInvoke))
	}
	tl.Add("input transfer (H2D)", sim.KindTransfer, r.spec.Link.TransferTime(inputBytes))
	// FIL's working set: the packed forest nodes (16B each); spilling past
	// L2 degrades traversal throughput (paper §IV-C1/C3 cache discussion).
	modelBytes := int64(stats.TotalNodes) * 16
	visits := stats.Visits(records)
	tl.Add("traversal kernels", sim.KindCompute, r.spec.RAPIDSTraversalTime(visits, modelBytes))
	tl.Add("result transfer (D2H)", sim.KindTransfer, r.spec.Link.TransferTime(records*4))
	return &tl, nil
}
