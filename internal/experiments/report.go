package experiments

import (
	"fmt"
	"strings"
)

// ReportRow is one paper-vs-measured comparison in the generated report.
type ReportRow struct {
	Quantity string
	Paper    string
	Measured string
	// WithinBand reports whether the measured value satisfies the
	// reproduction tolerance recorded for this quantity.
	WithinBand bool
}

// Report computes every headline comparison live and renders a markdown
// verification report — the machine-checked version of EXPERIMENTS.md's
// summary table. accelscore repro writes it as report.md.
func (s *Suite) Report() (string, []ReportRow, error) {
	hs, err := s.Headlines()
	if err != nil {
		return "", nil, err
	}
	iris, higgs := hs[0], hs[1]

	fig11, err := s.Fig11()
	if err != nil {
		return "", nil, err
	}
	e2e, err := QuerySpeedup(fig11, "HIGGS", 128, 1_000_000)
	if err != nil {
		return "", nil, err
	}

	thr, err := s.Fig10()
	if err != nil {
		return "", nil, err
	}
	var fpgaPeak float64
	for _, p := range thr {
		if p.Label == "h" {
			_, fpgaPeak = p.PeakThroughput()
		}
	}

	band := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	rows := []ReportRow{
		{"IRIS best backend @1M x 128 trees", "FPGA", iris.BestBackend, iris.BestBackend == "FPGA"},
		{"IRIS FPGA speedup", "54x", fmt.Sprintf("%.1fx", iris.FPGASpeedup), band(iris.FPGASpeedup, 35, 80)},
		{"IRIS GPU-HB speedup", "7.5x", fmt.Sprintf("%.1fx (%s)", iris.GPUSpeedup, iris.GPUBackend), band(iris.GPUSpeedup, 5, 12)},
		{"HIGGS best backend @1M x 128 trees", "FPGA", higgs.BestBackend, higgs.BestBackend == "FPGA"},
		{"HIGGS FPGA speedup", "69.7x", fmt.Sprintf("%.1fx", higgs.FPGASpeedup), band(higgs.FPGASpeedup, 45, 110)},
		{"HIGGS GPU-RAPIDS speedup", "16.5x", fmt.Sprintf("%.1fx (%s)", higgs.GPUSpeedup, higgs.GPUBackend), band(higgs.GPUSpeedup, 10, 28)},
		{"HIGGS FPGA over best GPU", "4.2x", fmt.Sprintf("%.1fx", higgs.FPGASpeedup/higgs.GPUSpeedup), band(higgs.FPGASpeedup/higgs.GPUSpeedup, 2.5, 6.5)},
		{"Wrong-offload latency penalty @1 record", ">=10x", fmt.Sprintf("%.1fx / %.1fx", iris.WrongOffloadLatency, higgs.WrongOffloadLatency),
			iris.WrongOffloadLatency >= 5 && higgs.WrongOffloadLatency >= 5},
		{"Wrong-stay throughput penalty @1M", "~70x", fmt.Sprintf("%.1fx / %.1fx", iris.WrongStayThroughput, higgs.WrongStayThroughput),
			iris.WrongStayThroughput >= 35 && higgs.WrongStayThroughput >= 45},
		{"IRIS offload crossover (128 trees)", "~1K records", formatCount(iris.Crossover128Trees), band(float64(iris.Crossover128Trees), 50, 5000)},
		{"HIGGS offload crossover (128 trees)", "~500 records", formatCount(higgs.Crossover128Trees), band(float64(higgs.Crossover128Trees), 30, 2000)},
		{"IRIS offload crossover (1 tree)", "~10K records", formatCount(iris.Crossover1Tree), band(float64(iris.Crossover1Tree), 2e3, 2e5)},
		{"HIGGS offload crossover (1 tree)", "~5K records", formatCount(higgs.Crossover1Tree), band(float64(higgs.Crossover1Tree), 1e3, 1e5)},
		{"End-to-end query speedup, HIGGS 1M", "~2.6x", fmt.Sprintf("%.2fx", e2e), band(e2e, 1.8, 5)},
		{"FPGA peak throughput (128-tree HIGGS)", "~25M scorings/s", fmt.Sprintf("%.1fM/s", fpgaPeak/1e6), band(fpgaPeak/1e6, 10, 40)},
	}

	var sb strings.Builder
	sb.WriteString("# Reproduction verification report\n\n")
	sb.WriteString("Generated live by `accelscore repro -fig report`. Every row is recomputed from\n")
	sb.WriteString("the calibrated simulators; the band column states whether the measured\n")
	sb.WriteString("value lies within the reproduction tolerance asserted by the test suite.\n\n")
	sb.WriteString("| Quantity | Paper | Measured | In band |\n|---|---|---|---|\n")
	allOK := true
	for _, r := range rows {
		mark := "yes"
		if !r.WithinBand {
			mark = "**NO**"
			allOK = false
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s |\n", r.Quantity, r.Paper, r.Measured, mark)
	}
	sb.WriteString("\n")
	if allOK {
		sb.WriteString("All quantities within the reproduction bands.\n")
	} else {
		sb.WriteString("SOME QUANTITIES OUT OF BAND — recalibrate (see internal/hw/calibration.go).\n")
	}
	return sb.String(), rows, nil
}
