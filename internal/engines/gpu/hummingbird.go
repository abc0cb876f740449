package gpu

import (
	"fmt"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/kernel"
	"accelscore/internal/sim"
	"accelscore/internal/tensor"
)

// gatherRows compacts the selected rows of d into a dense matrix so a
// filtered batch runs the same tensor program a smaller table would.
func gatherRows(d *dataset.Dataset, sel *kernel.Selection) *tensor.Matrix {
	features := d.NumFeatures()
	out := tensor.New(sel.Count(), features)
	sel.ForEach(func(row, rank int) {
		copy(out.Data[rank*features:(rank+1)*features], d.Row(row))
	})
	return out
}

// Hummingbird is the GPU-HB backend: it compiles the forest into a tensor
// program (dense GEMM for shallow trees, perfect-tree traversal otherwise),
// executes it functionally, and charges simulated GPU time. Tensor kernels
// evaluate "multiple nodes and paths in the tree ... instead of a
// traditional sequential traversal, but may do redundant computations"
// (paper §III-A).
type Hummingbird struct {
	spec hw.GPUSpec
	// overlapTransfers enables the stream-overlap of H2D copies with kernel
	// execution (on by default; the ablation benches turn it off).
	overlapTransfers bool
}

// NewHummingbird returns a GPU-HB engine on the given device.
func NewHummingbird(spec hw.GPUSpec) *Hummingbird {
	return &Hummingbird{spec: spec, overlapTransfers: true}
}

// WithoutOverlap disables H2D/compute overlap (ablation).
func (h *Hummingbird) WithoutOverlap() *Hummingbird {
	c := *h
	c.overlapTransfers = false
	return &c
}

// Name implements backend.Backend.
func (h *Hummingbird) Name() string { return "GPU_HB" }

// Score implements backend.Backend: compiles and executes the tensor
// program.
func (h *Hummingbird) Score(req *backend.Request) (*backend.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// O boundary: runtime/kernel-launch invocation.
	if err := req.Boundary(h.Name(), faults.BoundaryInvoke); err != nil {
		return nil, err
	}
	prog, err := compileHB(req.Forest)
	if err != nil {
		return nil, err
	}
	// L boundary: the H2D input copy.
	if err := req.Boundary(h.Name(), faults.BoundaryTransfer); err != nil {
		return nil, err
	}
	// C boundary: the tensor kernels.
	if err := req.Boundary(h.Name(), faults.BoundaryCompute); err != nil {
		return nil, err
	}
	scored := req.NumScored()
	preds := make([]int, scored)
	if prog.boosted {
		// Boosted ensembles aggregate margins instead of votes.
		margins := make([]float64, scored)
		for i := range margins {
			margins[i] = prog.base
		}
		for _, p := range prog.ptt {
			req.EachRow(func(row, rank int) {
				margins[rank] += float64(p.predictValue(req.Data.Row(row)))
			})
		}
		for i, m := range margins {
			if m > 0 {
				preds[i] = 1
			}
		}
	} else {
		votes := make([][]int, scored)
		for i := range votes {
			votes[i] = make([]int, prog.classes)
		}
		switch prog.strategy {
		case "gemm":
			// With a pushed-down filter only the surviving rows are gathered
			// into the input matrix, so the tensor program (and the simulated
			// H2D copy) never sees dead rows.
			x := &tensor.Matrix{Rows: req.Data.NumRecords(), Cols: req.Data.NumFeatures(), Data: req.Data.X}
			if req.Sel != nil {
				x = gatherRows(req.Data, req.Sel)
			}
			for _, g := range prog.gemm {
				classes := g.predictBatch(x)
				for i, c := range classes {
					votes[i][c]++
				}
			}
		default: // ptt
			for _, p := range prog.ptt {
				req.EachRow(func(row, rank int) {
					votes[rank][p.predict(req.Data.Row(row))]++
				})
			}
		}
		for i := range preds {
			preds[i] = forest.Argmax(votes[i])
		}
	}

	tl, err := h.Estimate(req.ModelStats(), int64(scored))
	if err != nil {
		return nil, err
	}
	res := &backend.Result{Predictions: preds}
	res.Timeline.Extend(tl)
	return res, nil
}

// Estimate implements backend.Backend.
func (h *Hummingbird) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	if records < 0 {
		return nil, fmt.Errorf("gpu: negative record count %d", records)
	}
	var tl sim.Timeline
	tl.Add("hb invoke", sim.KindOverhead, h.spec.HBInvoke)

	inputBytes := records * int64(stats.Features) * dataset.BytesPerValue
	// Inputs beyond the device-memory budget run in multiple rounds, each
	// paying its own transfer setup and an extra dispatch.
	if batches := h.spec.InputBatches(inputBytes); batches > 1 {
		tl.Add("device-memory batching", sim.KindOverhead,
			time.Duration(batches-1)*(h.spec.Link.PerTransfer+h.spec.HBInvoke/4))
	}
	h2d := sim.Span{Name: "input transfer (H2D)", Kind: sim.KindTransfer, Duration: h.spec.Link.TransferTime(inputBytes)}

	var kernels sim.Span
	if stats.MaxDepth <= gemmDepthLimit {
		// GEMM strategy: per tree, a feature-gather GEMM (records x features
		// x internal) plus a leaf-selection GEMM (records x internal x
		// leaves) — mirroring gemmTree.flops.
		ni := int64(1<<uint(stats.MaxDepth)) - 1
		nl := int64(1 << uint(stats.MaxDepth))
		perTree := 2*records*int64(stats.Features)*ni + 2*records*ni*nl
		flops := int64(stats.Trees) * perTree
		kernels = sim.Span{Name: "tensor kernels (GEMM)", Kind: sim.KindCompute, Duration: h.spec.HBGEMMTime(flops)}
	} else {
		// PTT strategy always walks MaxDepth levels — redundant work on
		// shallow paths, which is exactly Hummingbird's trade.
		visits := records * int64(stats.Trees) * int64(stats.MaxDepth)
		kernels = sim.Span{Name: "tensor kernels (PTT)", Kind: sim.KindCompute, Duration: h.spec.HBTraversalTime(visits)}
	}

	if h.overlapTransfers {
		tl.Overlapped(h2d, kernels)
	} else {
		tl.AddSpan(h2d)
		tl.AddSpan(kernels)
	}
	resultBytes := records * 4
	tl.Add("result transfer (D2H)", sim.KindTransfer, h.spec.Link.TransferTime(resultBytes))
	return &tl, nil
}
