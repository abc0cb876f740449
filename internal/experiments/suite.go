// Package experiments regenerates every figure of the paper's evaluation
// section (§IV): the Fig. 1/Fig. 8 optimal-backend shmoos, the Fig. 7 FPGA
// time breakdowns, the Fig. 9 latency and Fig. 10 throughput sweeps, the
// Fig. 11 end-to-end query breakdowns, and the §IV-C headline ratios. Each
// experiment returns structured rows plus a text rendering; accelscore repro
// writes them all, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"accelscore/internal/core"
	"accelscore/internal/hw"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
)

// DatasetShape describes one of the paper's two datasets for sweep purposes.
type DatasetShape struct {
	Name     string
	Features int
	Classes  int
}

// The paper's datasets (§IV-A).
var (
	IrisShape  = DatasetShape{Name: "IRIS", Features: 4, Classes: 3}
	HiggsShape = DatasetShape{Name: "HIGGS", Features: 28, Classes: 2}
)

// RecordSweep is the record-count axis used by Figs. 8-10 (1 to 1M, decade
// steps).
var RecordSweep = []int64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}

// TreeSweep is the model-complexity axis of Fig. 8.
var TreeSweep = []int{1, 8, 32, 128}

// Suite wires the testbed and pipeline used by every experiment.
type Suite struct {
	TB   *platform.Testbed
	Pipe *pipeline.Pipeline
}

// NewSuite builds the default experiment environment: the calibrated
// testbed and the loosely-integrated (external Python process) pipeline.
func NewSuite() *Suite {
	tb := platform.New()
	return &Suite{
		TB: tb,
		Pipe: &pipeline.Pipeline{
			Runtime:  hw.DefaultRuntime(),
			Registry: tb.Registry,
			Advisor:  tb.Advisor,
		},
	}
}

// config builds a core.Config for a dataset shape.
func (d DatasetShape) config(trees, depth int, records int64) core.Config {
	return core.Config{
		DatasetName: d.Name,
		Features:    d.Features,
		Classes:     d.Classes,
		Trees:       trees,
		Depth:       depth,
		Records:     records,
	}
}
