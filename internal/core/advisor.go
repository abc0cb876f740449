// Package core implements the paper's primary contribution: the end-to-end
// offload analysis for DBMS ML scoring. It decomposes each backend's
// simulated timeline into the O/L/C taxonomy of Fig. 6, predicts the overall
// scoring time of every backend for a given (model complexity, record count)
// configuration, picks the optimal backend (the shmoo of Fig. 1 / Fig. 8),
// locates CPU-vs-accelerator crossover points, and quantifies the cost of
// wrong offloading decisions (the 10x latency / 70x throughput penalties of
// §I).
package core

import (
	"fmt"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/forest"
	"accelscore/internal/sim"
)

// Config identifies one scoring scenario: a model shape and a record count.
type Config struct {
	// DatasetName labels the scenario ("IRIS", "HIGGS").
	DatasetName string
	// Features and Classes describe the dataset schema.
	Features, Classes int
	// Trees and Depth describe the random forest.
	Trees, Depth int
	// Records is the scoring batch size.
	Records int64
}

// Stats converts the configuration to the structural stats the backends
// consume, assuming full-depth average paths (the paper's trained models are
// near-full at these depths).
func (c Config) Stats() forest.Stats {
	return forest.SyntheticStats(c.Trees, c.Depth, c.Features, c.Classes)
}

// String renders a compact scenario label.
func (c Config) String() string {
	return fmt.Sprintf("%s t=%d d=%d n=%d", c.DatasetName, c.Trees, c.Depth, c.Records)
}

// Advisor predicts per-backend scoring times and makes offload decisions.
// CPU holds the non-offloaded engines (the baseline family); Accelerators
// holds the PCIe-attached options.
type Advisor struct {
	CPU          []backend.Backend
	Accelerators []backend.Backend
	// MinGain is the offload hysteresis: the accelerator must beat the best
	// CPU by at least this factor before the advisor offloads. Zero means
	// any predicted win triggers offload. A small guard band (e.g. 1.2)
	// protects against model error around the crossover, where the paper
	// shows a wrong decision is most likely and least costly to avoid.
	MinGain float64
}

// BackendTime is one backend's predicted overall scoring time for a
// configuration. Unsupported configurations carry Err and an infinite Time.
type BackendTime struct {
	Name     string
	Time     time.Duration
	Timeline *sim.Timeline
	Err      error
}

// Evaluate predicts every backend's overall scoring time for cfg, in a
// stable order (CPU family first, then accelerators).
func (a *Advisor) Evaluate(cfg Config) []BackendTime {
	stats := cfg.Stats()
	var out []BackendTime
	for _, b := range append(append([]backend.Backend{}, a.CPU...), a.Accelerators...) {
		tl, err := b.Estimate(stats, cfg.Records)
		bt := BackendTime{Name: b.Name(), Err: err}
		if err == nil {
			bt.Time = tl.Total()
			bt.Timeline = tl
		} else {
			bt.Time = time.Duration(1<<63 - 1)
		}
		out = append(out, bt)
	}
	return out
}

// bestOf returns the fastest supported backend among the given set.
func bestOf(stats forest.Stats, records int64, set []backend.Backend) (BackendTime, bool) {
	best := BackendTime{Time: time.Duration(1<<63 - 1)}
	found := false
	for _, b := range set {
		tl, err := b.Estimate(stats, records)
		if err != nil {
			continue
		}
		if t := tl.Total(); t < best.Time {
			best = BackendTime{Name: b.Name(), Time: t, Timeline: tl}
			found = true
		}
	}
	return best, found
}

// Decision is the advisor's verdict for one configuration.
type Decision struct {
	Config Config
	// Best is the fastest backend overall — the cell content of Fig. 1.
	Best BackendTime
	// BestCPU is the fastest non-offloaded engine (the paper selects "the
	// model with the best performance for the CPU" as the baseline,
	// §IV-C2).
	BestCPU BackendTime
	// BestAccelerator is the fastest offloaded engine, if any supports the
	// configuration.
	BestAccelerator BackendTime
	// Offload reports whether the advisor would offload.
	Offload bool
	// Speedup is BestCPU.Time / Best.Time — the number printed in the
	// Fig. 8 cells. 1.0 when the CPU is optimal.
	Speedup float64
}

// Decide picks the optimal backend for cfg.
func (a *Advisor) Decide(cfg Config) (Decision, error) {
	stats := cfg.Stats()
	cpu, ok := bestOf(stats, cfg.Records, a.CPU)
	if !ok {
		return Decision{}, fmt.Errorf("core: no CPU backend supports %v", cfg)
	}
	d := Decision{Config: cfg, BestCPU: cpu, Best: cpu, Speedup: 1}
	if acc, ok := bestOf(stats, cfg.Records, a.Accelerators); ok {
		d.BestAccelerator = acc
		threshold := float64(cpu.Time)
		if a.MinGain > 1 {
			threshold = float64(cpu.Time) / a.MinGain
		}
		if float64(acc.Time) < threshold {
			d.Best = acc
			d.Offload = true
			d.Speedup = float64(cpu.Time) / float64(acc.Time)
		}
	}
	return d, nil
}

// OLC is the Fig. 6 decomposition of a timeline: host offload overhead O,
// data-transfer overhead L, and compute C.
type OLC struct {
	O, L, C time.Duration
}

// Total returns O+L+C.
func (x OLC) Total() time.Duration { return x.O + x.L + x.C }

// Decompose classifies a timeline's spans into the O/L/C taxonomy.
func Decompose(tl *sim.Timeline) OLC {
	return OLC{
		O: tl.TotalKind(sim.KindOverhead),
		L: tl.TotalKind(sim.KindTransfer),
		C: tl.TotalKind(sim.KindCompute),
	}
}

// ShmooCell is one cell of the Fig. 1 / Fig. 8 grid.
type ShmooCell struct {
	Records int64
	Trees   int
	// Best is the optimal backend's display name.
	Best string
	// Speedup over the best CPU (1.0 when the CPU wins).
	Speedup float64
}

// Shmoo evaluates the optimal backend over a records x trees grid for the
// given dataset shape, reproducing Fig. 1 and Fig. 8.
func (a *Advisor) Shmoo(datasetName string, features, classes, depth int, recordCounts []int64, treeCounts []int) ([][]ShmooCell, error) {
	grid := make([][]ShmooCell, len(recordCounts))
	for i, n := range recordCounts {
		grid[i] = make([]ShmooCell, len(treeCounts))
		for j, trees := range treeCounts {
			cfg := Config{
				DatasetName: datasetName, Features: features, Classes: classes,
				Trees: trees, Depth: depth, Records: n,
			}
			d, err := a.Decide(cfg)
			if err != nil {
				return nil, err
			}
			grid[i][j] = ShmooCell{Records: n, Trees: trees, Best: d.Best.Name, Speedup: d.Speedup}
		}
	}
	return grid, nil
}

// Crossover finds the smallest record count in [lo, hi] at which offloading
// becomes beneficial (the accelerator beats the best CPU), by bisection over
// the monotone decision boundary. Returns hi+1 if the CPU wins everywhere.
func (a *Advisor) Crossover(cfg Config, lo, hi int64) (int64, error) {
	decideAt := func(n int64) (bool, error) {
		c := cfg
		c.Records = n
		d, err := a.Decide(c)
		if err != nil {
			return false, err
		}
		return d.Offload, nil
	}
	offloadHi, err := decideAt(hi)
	if err != nil {
		return 0, err
	}
	if !offloadHi {
		return hi + 1, nil
	}
	if offloadLo, err := decideAt(lo); err != nil {
		return 0, err
	} else if offloadLo {
		return lo, nil
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		off, err := decideAt(mid)
		if err != nil {
			return 0, err
		}
		if off {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// Penalty quantifies the §I wrong-decision costs for a model shape.
type Penalty struct {
	// WrongOffloadLatency is how much slower the best accelerator is than
	// the best CPU at SmallRecords ("a wrong decision to offload ... can
	// increase the latency by 10x").
	WrongOffloadLatency float64
	SmallRecords        int64
	// WrongStayThroughput is how much lower the CPU's throughput is than
	// the best accelerator's at LargeRecords ("a wrong decision to not
	// offload ... can result in 70x lower throughput").
	WrongStayThroughput float64
	LargeRecords        int64
}

// PenaltyAnalysis computes both penalties for the given model shape.
func (a *Advisor) PenaltyAnalysis(cfg Config, smallRecords, largeRecords int64) (Penalty, error) {
	at := func(n int64) (Decision, error) {
		c := cfg
		c.Records = n
		return a.Decide(c)
	}
	small, err := at(smallRecords)
	if err != nil {
		return Penalty{}, err
	}
	large, err := at(largeRecords)
	if err != nil {
		return Penalty{}, err
	}
	p := Penalty{SmallRecords: smallRecords, LargeRecords: largeRecords}
	if small.BestAccelerator.Name != "" {
		p.WrongOffloadLatency = float64(small.BestAccelerator.Time) / float64(small.BestCPU.Time)
	}
	if large.BestAccelerator.Name != "" {
		p.WrongStayThroughput = float64(large.BestCPU.Time) / float64(large.BestAccelerator.Time)
	}
	return p, nil
}
