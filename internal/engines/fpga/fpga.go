// Package fpga simulates the paper's FPGA random-forest inference engine
// (§III-B, Fig. 5): 128 processing elements, each evaluating one tree held
// in BRAM tree memory in the Fig. 4b node layout, a majority-voting unit,
// result memory, CSR-based setup, interrupt-based completion, and a PCIe 3.0
// x16 host interface whose record streaming overlaps with scoring.
//
// The simulator is functional — PEs really walk the dense node words — and
// cycle-counted: scoring time comes from the issue-rate model in hw.FPGASpec
// and every offload component of Fig. 7 appears as a named span.
package fpga

import (
	"fmt"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/model"
	"accelscore/internal/sim"
)

// Engine is the FPGA inference-engine backend.
type Engine struct {
	spec hw.FPGASpec
	// overlapStreaming enables the record-stream/compute overlap of §IV-B
	// item 1 (default on; ablation turns it off).
	overlapStreaming bool
	// spillPenalty multiplies the initiation interval when tree memories do
	// not fit BRAM and must spill to device DRAM (the BRAM-residency
	// ablation; the production configuration always fits).
	spillPenalty float64
	// hybridCPU, when non-nil, enables the §III-B extension: trees deeper
	// than the PE limit are evaluated to depth MaxTreeDepth on the FPGA and
	// finished on the CPU.
	hybridCPU        *hw.CPUSpec
	hybridCPUThreads int
}

// New returns an FPGA engine with the given hardware description.
func New(spec hw.FPGASpec) *Engine {
	return &Engine{spec: spec, overlapStreaming: true, spillPenalty: 4}
}

// WithoutOverlap disables record-stream/compute overlap (ablation).
func (e *Engine) WithoutOverlap() *Engine {
	c := *e
	c.overlapStreaming = false
	return &c
}

// WithBRAMBytes returns a copy with a different BRAM budget (used by the
// BRAM-residency ablation to force spilling).
func (e *Engine) WithBRAMBytes(bytes int64) *Engine {
	c := *e
	c.spec.BRAMBytes = bytes
	return &c
}

// WithDeepTreeFallback enables the hybrid FPGA+CPU mode for trees deeper
// than the PE limit: the FPGA evaluates the first MaxTreeDepth levels and
// ships intermediate node ids back for the CPU to finish (§III-B).
func (e *Engine) WithDeepTreeFallback(cpu hw.CPUSpec, threads int) *Engine {
	c := *e
	c.hybridCPU = &cpu
	if threads <= 0 {
		threads = cpu.HardwareThreads
	}
	c.hybridCPUThreads = threads
	return &c
}

// Name implements backend.Backend.
func (e *Engine) Name() string { return "FPGA" }

// Score implements backend.Backend.
func (e *Engine) Score(req *backend.Request) (*backend.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	stats := req.ModelStats()
	hybrid := stats.MaxDepth > e.spec.MaxTreeDepth
	if hybrid && e.hybridCPU == nil {
		return nil, fmt.Errorf("fpga: tree depth %d exceeds the %d-level PE limit; deep trees must be processed by the CPU (§III-B) — enable WithDeepTreeFallback",
			stats.MaxDepth, e.spec.MaxTreeDepth)
	}
	if req.Forest.Kind != forest.Classifier {
		return nil, fmt.Errorf("fpga: the majority-voting unit supports classifiers only")
	}
	// O boundary: CSR setup and the host-side FPGA API calls.
	if err := req.Boundary(e.Name(), faults.BoundaryInvoke); err != nil {
		return nil, err
	}
	// L boundary: model load into PE tree memories + record stream.
	if err := req.Boundary(e.Name(), faults.BoundaryTransfer); err != nil {
		return nil, err
	}
	// C boundary: the PE array walk.
	if err := req.Boundary(e.Name(), faults.BoundaryCompute); err != nil {
		return nil, err
	}

	scored := req.NumScored()
	preds := make([]int, scored)
	if hybrid {
		// Functional result of FPGA-to-depth-10 plus CPU completion equals
		// the full tree walk.
		req.EachRow(func(row, rank int) {
			preds[rank] = req.Forest.PredictClass(req.Data.Row(row))
		})
	} else {
		dense, err := model.CompileDense(req.Forest, e.spec.MaxTreeDepth)
		if err != nil {
			return nil, fmt.Errorf("fpga: %w", err)
		}
		e.scoreDense(dense, req, preds)
	}

	tl, err := e.Estimate(stats, int64(scored))
	if err != nil {
		return nil, err
	}
	res := &backend.Result{Predictions: preds}
	res.Timeline.Extend(tl)
	return res, nil
}

// scoreDense runs the PE array functionally: trees are loaded into PE tree
// memories in passes of at most ProcessingElements trees; each record is
// issued to every loaded PE and the votes accumulate in result memory. A
// pushed-down selection drops dead rows before they are issued, so result
// memory only ever holds survivors.
func (e *Engine) scoreDense(dense *model.Dense, req *backend.Request, preds []int) {
	votes := make([][]int, len(preds))
	for i := range votes {
		votes[i] = make([]int, dense.NumClasses)
	}
	passes := e.spec.Passes(dense.Trees)
	for p := 0; p < passes; p++ {
		lo := p * e.spec.ProcessingElements
		hi := lo + e.spec.ProcessingElements
		if hi > dense.Trees {
			hi = dense.Trees
		}
		// "Before starting the ML scoring, all the model information (tree
		// nodes) are transferred into the tree memory of each processing
		// element" — simulate the load by copying the node words into the
		// per-PE memories and evaluating from those.
		treeMem := make([][]model.DenseNode, hi-lo)
		for t := lo; t < hi; t++ {
			treeMem[t-lo] = append([]model.DenseNode(nil), dense.TreeSlice(t)...)
		}
		req.EachRow(func(i, slot int) {
			row := req.Data.Row(i)
			for pe := range treeMem {
				votes[slot][model.WalkNodes(treeMem[pe], row)]++
			}
		})
	}
	// Majority-voting unit.
	for i := range preds {
		preds[i] = forest.Argmax(votes[i])
	}
}

// Estimate implements backend.Backend, producing the Fig. 7 component
// breakdown.
func (e *Engine) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	if records < 0 {
		return nil, fmt.Errorf("fpga: negative record count %d", records)
	}
	hybrid := stats.MaxDepth > e.spec.MaxTreeDepth
	if hybrid && e.hybridCPU == nil {
		return nil, fmt.Errorf("fpga: tree depth %d exceeds the %d-level PE limit",
			stats.MaxDepth, e.spec.MaxTreeDepth)
	}

	var tl sim.Timeline
	passes := e.spec.Passes(stats.Trees)
	perTreeBytes := e.spec.TreeMemoryBytes(e.spec.MaxTreeDepth)
	_, fits := e.spec.ModelFits(stats.Trees, e.spec.MaxTreeDepth)

	remaining := stats.Trees
	for p := 0; p < passes; p++ {
		resident := remaining
		if resident > e.spec.ProcessingElements {
			resident = e.spec.ProcessingElements
		}
		remaining -= resident

		// 1) Input transfer: the model load into PE tree memories. Record
		//    streaming is charged inside the overlapped scoring phase.
		modelBytes := int64(resident) * perTreeBytes
		tl.Add("input transfer", sim.KindTransfer,
			e.spec.ModelTransferFixed+e.spec.Link.StreamTime(modelBytes))
		// 2) FPGA setup via CSRs.
		tl.Add("FPGA setup", sim.KindOverhead, e.spec.CSRSetup)
		// 3) Scoring, overlapped with the record stream. When the tree
		//    memories do not fit BRAM they spill to device DRAM and the
		//    issue rate degrades by spillPenalty (BRAM-residency ablation;
		//    the default configuration always fits, §IV-C1).
		scoring := e.spec.ScoringTime(records, resident)
		if !fits {
			scoring = time.Duration(float64(scoring) * e.spillPenalty)
		}
		streamBytes := records * int64(stats.Features) * dataset.BytesPerValue
		stream := sim.Span{Name: "record stream", Kind: sim.KindTransfer, Duration: e.spec.Link.StreamTime(streamBytes)}
		score := sim.Span{Name: "scoring", Kind: sim.KindCompute, Duration: scoring}
		if e.overlapStreaming {
			tl.Overlapped(score, stream)
		} else {
			tl.AddSpan(stream)
			tl.AddSpan(score)
		}
		// 4) Completion signal (interrupt).
		tl.Add("completion signal", sim.KindOverhead, e.spec.InterruptLatency)
		// 5) Result transfer. The result memory is a bounded BRAM region
		//    (Fig. 5); batches whose results exceed it are drained in
		//    chunks, each paying the DMA fixed cost.
		resultBytes := records * 4
		if hybrid {
			// Intermediate node ids for every (record, tree) pair go back
			// to the host for CPU completion.
			resultBytes = records * int64(resident) * 4
		}
		drains := int64(1)
		if e.spec.ResultMemoryBytes > 0 {
			drains = (resultBytes + e.spec.ResultMemoryBytes - 1) / e.spec.ResultMemoryBytes
			if drains < 1 {
				drains = 1
			}
		}
		tl.Add("result transfer", sim.KindTransfer,
			time.Duration(drains)*e.spec.ResultTransferFixed+e.spec.Link.StreamTime(resultBytes))
		// 6) Software overhead of the host-side FPGA API calls.
		tl.Add("software overhead", sim.KindOverhead, e.spec.SoftwareOverhead)
	}

	if hybrid {
		// CPU finishes levels beyond MaxTreeDepth (§III-B extension).
		extraDepth := stats.AvgPathLength - float64(e.spec.MaxTreeDepth)
		if extraDepth < 1 {
			extraDepth = 1
		}
		visits := int64(float64(records) * float64(stats.Trees) * extraDepth)
		cpuTime := e.hybridCPU.SKLearnScoringTime(visits, stats.Features, e.hybridCPUThreads)
		tl.Add("CPU deep-level completion", sim.KindCompute, cpuTime)
	}
	return &tl, nil
}
