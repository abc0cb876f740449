package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"accelscore/internal/platform"
	"accelscore/internal/sched"
	"accelscore/internal/sim"
)

// runSched simulates a stream of DBMS scoring queries under the
// offload-placement policies — static CPU, static FPGA, the queue-oblivious
// oracle, and the contention-aware dynamic scheduler the paper's §I
// motivates — and prints latency/utilization metrics per policy.
func runSched(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sched", stderr)
	queries := fs.Int("queries", 500, "number of queries in the stream")
	seed := fs.Uint64("seed", 1, "workload seed")
	interarrival := fs.Duration("interarrival", 20*time.Millisecond, "mean interarrival time")
	minRecords := fs.Int64("min", 1, "minimum records per query")
	maxRecords := fs.Int64("max", 1_000_000, "maximum records per query")
	trace := fs.Bool("trace", false, "print a per-device Gantt trace for each policy")
	saveTrace := fs.String("save", "", "write the generated workload to a CSV trace file")
	loadTrace := fs.String("load", "", "replay a workload from a CSV trace file instead of generating one")
	if err := parse(fs, args); err != nil {
		return err
	}

	var qs []sched.Query
	if *loadTrace != "" {
		f, err := os.Open(*loadTrace)
		if err != nil {
			return err
		}
		qs, err = sched.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		cfg := sched.DefaultWorkload(*queries, *seed)
		cfg.MeanInterarrival = *interarrival
		cfg.MinRecords = *minRecords
		cfg.MaxRecords = *maxRecords
		var err error
		if qs, err = sched.Generate(cfg); err != nil {
			return err
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			return err
		}
		err = sched.WriteTrace(f, qs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "saved trace to", *saveTrace)
	}
	tb := platform.New()
	simulator := &sched.Simulator{Registry: tb.Registry}
	policies := []sched.Policy{
		sched.Static{BackendName: "CPU_SKLearn", Registry: tb.Registry},
		sched.Static{BackendName: "FPGA", Registry: tb.Registry},
		sched.Oracle{Advisor: tb.Advisor},
		sched.ContentionAware{Advisor: tb.Advisor},
	}
	fmt.Fprintf(stdout, "workload: %d queries, mean interarrival %v, records %d..%d, HIGGS-shaped models\n\n",
		len(qs), *interarrival, *minRecords, *maxRecords)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tmakespan\tmean\tp50\tp99\toffloaded\tcpu util\tgpu util\tfpga util")
	for _, policy := range policies {
		comps, m, err := simulator.Run(policy, qs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%.0f%%\t%.0f%%\t%.0f%%\n",
			m.Policy,
			sim.FormatDuration(m.Makespan),
			sim.FormatDuration(m.MeanLatency),
			sim.FormatDuration(m.P50),
			sim.FormatDuration(m.P99),
			m.Offloaded, len(qs),
			100*m.Utilization(sched.DeviceCPU),
			100*m.Utilization(sched.DeviceGPU),
			100*m.Utilization(sched.DeviceFPGA),
		)
		if *trace {
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n%s:\n%s\n", policy.Name(), sched.RenderTrace(comps, 100))
		}
	}
	return w.Flush()
}
