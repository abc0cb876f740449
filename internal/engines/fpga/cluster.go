package fpga

import (
	"fmt"
	"time"

	"accelscore/internal/forest"
	"accelscore/internal/sim"
)

// Cluster is a record-parallel group of identical FPGA inference engines —
// the scale-out direction of the paper's ref [14] ("Distributed inference
// over decision tree ensembles on clusters of FPGAs"). Records are split
// evenly; every device holds the full model, so the model transfer is paid
// on each device while scoring time divides by the cluster size. The
// timeline reports the makespan device (all devices run concurrently) plus a
// host-side merge.
type Cluster struct {
	engine  *Engine
	devices int
}

// NewCluster wraps n copies of the given engine configuration.
func NewCluster(e *Engine, devices int) (*Cluster, error) {
	if devices < 1 {
		return nil, fmt.Errorf("fpga: cluster needs at least one device, got %d", devices)
	}
	return &Cluster{engine: e, devices: devices}, nil
}

// Name is the label the scale-out table prints.
func (c *Cluster) Name() string {
	if c.devices == 1 {
		return "FPGA"
	}
	return fmt.Sprintf("FPGAx%d", c.devices)
}

// Estimate returns the makespan of the largest shard plus a per-device host
// merge cost.
func (c *Cluster) Estimate(stats forest.Stats, records int64) (*sim.Timeline, error) {
	largest := (records + int64(c.devices) - 1) / int64(c.devices)
	tl, err := c.engine.Estimate(stats, largest)
	if err != nil {
		return nil, err
	}
	var out sim.Timeline
	out.Extend(tl)
	if c.devices > 1 {
		// Host-side gather of the other devices' result buffers: one DMA
		// completion handling per additional device.
		gather := time.Duration(c.devices-1) * c.engine.spec.Link.PerTransfer
		out.Add("cluster result merge", sim.KindOverhead, gather)
	}
	return &out, nil
}
