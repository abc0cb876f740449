// Package cpusk implements the Scikit-learn-style CPU scoring engine
// ("CPU_SKLearn" in the paper's figures): blocked batch traversal through
// the shared flat kernel (internal/kernel), parallelized across worker
// goroutines, with a calibrated timing model for the Python-hosted library
// the paper measured.
//
// Fig. 6 Option 1: the CPU backend has no offload or transfer components —
// its timeline is a fixed batch-setup overhead plus compute.
package cpusk

import (
	"fmt"

	"accelscore/internal/backend"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/sim"
)

// Engine is a Scikit-learn-style batch scorer.
type Engine struct {
	spec    hw.CPUSpec
	threads int
	name    string
}

// New returns an engine using threads scoring threads (the paper uses 52).
func New(spec hw.CPUSpec, threads int) *Engine {
	if threads <= 0 {
		threads = spec.HardwareThreads
	}
	name := "CPU_SKLearn"
	if threads == 1 {
		name = "CPU_SKLearn_1th"
	}
	return &Engine{spec: spec, threads: threads, name: name}
}

// Name implements backend.Backend.
func (e *Engine) Name() string { return e.name }

// Threads returns the configured scoring thread count.
func (e *Engine) Threads() int { return e.threads }

// Score implements backend.Backend: goroutine-parallel batch traversal
// through the shared flat kernel (backend.Request.ScoreKernel) plus the
// calibrated timeline.
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
		return nil, fmt.Errorf("cpusk: negative record count %d", records)
	}
	visits := stats.Visits(records)
	total := e.spec.SKLearnScoringTime(visits, stats.Features, e.threads)
	var tl sim.Timeline
	tl.Add("batch setup", sim.KindOverhead, e.spec.SKLearnBatchSetup)
	tl.Add("scoring", sim.KindCompute, total-e.spec.SKLearnBatchSetup)
	return &tl, nil
}
