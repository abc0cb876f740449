package sched

import (
	"fmt"
	"strings"
	"time"

	"accelscore/internal/sim"
)

// RenderTrace renders completions as a per-device text Gantt chart: one row
// per device, time flowing left to right over width columns, each busy cell
// labeled with the query class (S/M/L by record count). Useful for eyeballing
// how policies spread load across the CPU, GPU and FPGA.
func RenderTrace(completions []Completion, width int) string {
	if len(completions) == 0 {
		return "(no completions)\n"
	}
	if width < 20 {
		width = 20
	}
	var makespan time.Duration
	for _, c := range completions {
		if c.Finish > makespan {
			makespan = c.Finish
		}
	}
	if makespan == 0 {
		makespan = 1
	}
	col := func(t time.Duration) int {
		c := int(int64(t) * int64(width) / int64(makespan))
		if c >= width {
			c = width - 1
		}
		return c
	}
	classOf := func(records int64) byte {
		switch {
		case records < 1_000:
			return 'S'
		case records < 100_000:
			return 'M'
		default:
			return 'L'
		}
	}

	devices := []Device{DeviceCPU, DeviceGPU, DeviceFPGA}
	lanes := map[Device][]byte{}
	for _, d := range devices {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		lanes[d] = lane
	}
	for _, c := range completions {
		lane := lanes[c.Device]
		if lane == nil {
			continue
		}
		from, to := col(c.Start), col(c.Finish)
		for i := from; i <= to; i++ {
			lane[i] = classOf(c.Query.Records)
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "trace over %s (S <1K, M <100K, L >=100K records)\n", sim.FormatDuration(makespan))
	for _, d := range devices {
		fmt.Fprintf(&sb, "%-5s |%s|\n", d, lanes[d])
	}
	return sb.String()
}

// RenderMetrics renders a metrics comparison as an aligned table.
func RenderMetrics(ms []Metrics) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %12s %12s %12s %10s\n",
		"policy", "makespan", "mean", "p50", "p99", "offloaded")
	for _, m := range ms {
		fmt.Fprintf(&sb, "%-20s %12s %12s %12s %12s %10d\n",
			m.Policy,
			sim.FormatDuration(m.Makespan),
			sim.FormatDuration(m.MeanLatency),
			sim.FormatDuration(m.P50),
			sim.FormatDuration(m.P99),
			m.Offloaded)
	}
	return sb.String()
}
