// Command loadgen is the repository's measurement driver: it replays a
// generated workload against the real serving code — in-process or as real
// serve processes behind the router — verifies every answer against a
// single-node oracle, and writes a JSON artifact on the shared envelope plus
// a markdown table under results/. A mode is a workload description and its
// verdict gates; booting processes, driving clients, checking answers,
// percentiles and report rendering are internal/harness. Six modes:
//
//   - throughput: one scoring stream through the serialized global-mutex
//     baseline and through the concurrent executor at each of the preset's
//     worker counts, next to the scheduling simulator's prediction
//     (BENCH_throughput.json, throughput_bench.md).
//   - chaos: the stream healthy and under a fault plan; faults may cost
//     latency and availability, never a prediction (CHAOS_report.json).
//   - fusion: WHERE pushed into the kernel against score-all-then-filter,
//     selectivity x table width (BENCH_fusion.json).
//   - restart: SIGKILL a serve process under write load and restart it; no
//     acknowledged write lost, no phantom or corrupt row, predictions
//     bit-identical across recoveries (restart_chaos in CHAOS_report.json).
//   - scaleout: shards x records over real serve shards behind the router
//     against the scatter simulator's curve, then SIGKILL one shard mid-run
//     (BENCH_scaleout.json).
//   - overload: open-loop Poisson and burst arrivals past calibrated
//     saturation, then SIGKILL one shard and SIGSTOP/SIGCONT another under
//     load (BENCH_overload.json).
//
// Every run is one named preset of one mode (presets.go), and the artifact
// records the preset it came from. Usage (-h lists every mode's presets):
//
//	loadgen -mode M -preset P [-json path] [-serve-bin path]
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/harness"
	"accelscore/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// job is one run: the mode and preset it executes, the preset's values (an
// artifact records them), where the JSON artifact goes, and the serve binary
// the process-level modes boot (empty builds one).
type job struct {
	mode, preset   string
	config         any
	json, serveBin string
}

// A mode is one measurement: its preset names and the JSON artifact it
// writes unless -json names another path.
type mode struct {
	json    string
	presets []string
	run     func(j *job) error
}

// newMode binds a mode's typed preset table to its run function.
func newMode[C any](json string, presets map[string]C, measure func(C, *job) error) mode {
	return mode{json: json, presets: names(presets), run: func(j *job) error {
		j.config = presets[j.preset]
		log.Printf("loadgen -mode %s -preset %s: %+v", j.mode, j.preset, j.config)
		return measure(presets[j.preset], j)
	}}
}

var modes = map[string]mode{
	"throughput": newMode("BENCH_throughput.json", throughputPresets, runThroughput),
	"chaos":      newMode("CHAOS_report.json", chaosPresets, runChaos),
	"fusion":     newMode("BENCH_fusion.json", fusionPresets, runFusionBench),
	"restart":    newMode("CHAOS_report.json", restartPresets, runRestartChaos),
	"scaleout":   newMode("BENCH_scaleout.json", scaleoutPresets, runScaleoutBench),
	"overload":   newMode("BENCH_overload.json", overloadPresets, runOverloadBench),
}

// names lists a table's names in order.
func names[V any](table map[string]V) []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// flags registers loadgen's whole command line.
func flags(fs *flag.FlagSet, j *job) {
	fs.StringVar(&j.mode, "mode", "", "measurement to run (loadgen -h lists each with its presets)")
	fs.StringVar(&j.preset, "preset", "", "named configuration of the mode, from presets.go")
	fs.StringVar(&j.json, "json", "", "JSON artifact path (default: the mode's committed artifact)")
	fs.StringVar(&j.serveBin, "serve-bin", "", "prebuilt serve binary for restart, scaleout and overload (empty builds one)")
}

// run parses args, runs the named preset, and returns the first failed
// verdict. -h prints the modes and their presets to stdout; progress is
// logged to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	log.SetFlags(0)
	log.SetOutput(stderr)
	var j job
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is returned, not printed twice
	flags(fs, &j)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fmt.Fprintln(stdout, "usage: loadgen -mode M -preset P [-json path] [-serve-bin path]")
			fs.PrintDefaults()
			for _, name := range names(modes) {
				fmt.Fprintf(stdout, "-mode %-10s -preset %-26s (-json %s)\n",
					name, strings.Join(modes[name].presets, "|"), modes[name].json)
			}
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	m, ok := modes[j.mode]
	if !ok {
		return fmt.Errorf("unknown -mode %q: want one of %s", j.mode, strings.Join(names(modes), ", "))
	}
	if !slices.Contains(m.presets, j.preset) {
		return fmt.Errorf("-mode %s: unknown -preset %q: want one of %s", j.mode, j.preset, strings.Join(m.presets, ", "))
	}
	if j.json == "" {
		j.json = m.json
	}
	return m.run(&j)
}

// record notes the job's preset in doc's "presets" map, keyed by mode, so
// a file two modes write (CHAOS_report.json) keeps both.
func (j *job) record(doc map[string]any) {
	presets, ok := doc["presets"].(map[string]any)
	if !ok {
		presets = map[string]any{}
		doc["presets"] = presets
	}
	presets[j.mode] = map[string]any{"name": j.preset, "config": j.config}
}

// envelope is the shared artifact envelope plus the preset that produced
// the artifact.
func (j *job) envelope(kind string) map[string]any {
	doc := harness.Envelope(kind)
	j.record(doc)
	return doc
}

// ran is the markdown reports' "Measured by" command.
func (j *job) ran() string {
	return fmt.Sprintf("`go run ./cmd/loadgen -mode %s -preset %s`", j.mode, j.preset)
}

// load is the generated stream a throughput preset describes.
func (p throughputConfig) load() harness.LoadConfig {
	return harness.LoadConfig{
		Queries:      p.Queries,
		Seed:         seed,
		Backend:      "CPU_SKLearn",
		TableRows:    p.Rows,
		TreeChoices:  p.Trees,
		DepthChoices: p.Depths,
	}
}

// runThroughput replays the stream through the serialized baseline and then
// through the executor at each preset worker count, each against a fresh
// environment so the model cache and snapshot cache start cold and no run
// warms another's state, and logs the scheduling simulator's prediction for
// the same stream next to them.
func runThroughput(p throughputConfig, j *job) error {
	cfg := p.load()
	objectives, err := obs.ParseSLOSpec(p.SLO)
	if err != nil {
		return err
	}
	opt := harness.RunOptions{Clients: clients, SLO: objectives}
	// The nil config is the serialized baseline.
	configs := []*exec.Config{nil}
	for _, w := range p.Workers {
		configs = append(configs, &exec.Config{Workers: w, QueueDepth: queueDepth})
	}
	var reports []*harness.LoadReport
	var env *harness.LoadEnv
	for _, ec := range configs {
		if env, err = harness.BuildLoadEnv(cfg, obs.NewObserver()); err != nil {
			return err
		}
		label := "serialized"
		var runner harness.QueryRunner = &harness.SerializedRunner{Pipe: env.Pipe}
		if ec != nil {
			label, runner = executorLabel(ec.Workers), exec.New(env.Pipe, *ec)
		}
		rep, err := harness.RunLoad(env, runner, label, opt)
		if err != nil {
			return err
		}
		log.Println(rep)
		reports = append(reports, rep)
	}
	m, err := env.Simulate()
	if err != nil {
		return err
	}
	log.Printf("simulator (static %s): makespan %v  mean %v  p50 %v  p99 %v",
		cfg.Backend, m.Makespan.Round(time.Millisecond), m.MeanLatency.Round(time.Microsecond),
		m.P50.Round(time.Microsecond), m.P99.Round(time.Microsecond))
	return harness.WriteReport(j.json, benchDoc(j, cfg, opt, reports), "throughput_bench.md",
		throughputMarkdown(j, cfg, opt, reports))
}

// executorLabel names the executor row at a preset worker count (0 =
// GOMAXPROCS).
func executorLabel(workers int) string {
	return fmt.Sprintf("executor w%d", cmp.Or(workers, runtime.GOMAXPROCS(0)))
}

// chaos is the healthy-vs-chaos run a chaos preset describes: an
// accelerator-targeted stream (the plans inject FPGA faults) under hang
// detection, CPU fallback and a per-query deadline.
func (p chaosConfig) chaos() harness.ChaosConfig {
	return harness.ChaosConfig{
		Load: harness.LoadConfig{
			Queries:      p.Queries,
			Seed:         seed,
			Backend:      "FPGA",
			TableRows:    p.Rows,
			TreeChoices:  zooTrees,
			DepthChoices: zooDepths,
		},
		Exec:      exec.Config{QueueDepth: queueDepth, AttemptTimeout: 150 * time.Millisecond},
		Clients:   clients,
		FaultSpec: p.Faults,
		FaultSeed: p.FaultSeed,
		Deadline:  2 * time.Second,
	}
}

// runChaos runs the healthy-vs-chaos comparison, writes the artifacts and
// fails hard if chaos ever changed a returned prediction — the one invariant
// graceful degradation must keep.
func runChaos(p chaosConfig, j *job) error {
	cfg := p.chaos()
	rep, err := harness.RunChaos(cfg)
	if err != nil {
		return err
	}
	log.Println(rep.Healthy)
	log.Println(rep.Chaos)
	if err := harness.WriteReport(j.json, mergedChaosDoc(j, chaosSections(cfg, rep)), "chaos_report.md",
		chaosMarkdown(j, cfg, rep)); err != nil {
		return err
	}
	if rep.Healthy.Wrong > 0 || rep.Chaos.Wrong > 0 {
		return fmt.Errorf("chaos: %d healthy / %d chaos queries returned WRONG predictions",
			rep.Healthy.Wrong, rep.Chaos.Wrong)
	}
	if rep.Healthy.Ok != rep.Healthy.Queries {
		return fmt.Errorf("chaos: healthy baseline lost %d/%d queries",
			rep.Healthy.Queries-rep.Healthy.Ok, rep.Healthy.Queries)
	}
	return nil
}

// chaosSections is the chaos mode's part of the chaos JSON artifact.
func chaosSections(cfg harness.ChaosConfig, rep *harness.ChaosReport) map[string]any {
	return map[string]any{
		"plan":       rep.Plan,
		"fault_seed": rep.Seed,
		"deadline":   cfg.Deadline.String(),
		"workload": map[string]any{
			"queries": cfg.Load.Queries,
			"seed":    cfg.Load.Seed,
			"backend": cfg.Load.Backend,
			"rows":    cfg.Load.TableRows,
			"clients": cfg.Clients,
		},
		"healthy": rep.Healthy,
		"chaos":   rep.Chaos,
	}
}

// mergedChaosDoc is the chaos JSON artifact at j.json with the job's
// sections written over it. The chaos and restart modes share that file,
// so each keeps the other's sections, whichever ran first. A fresh file
// gets the full envelope; an existing one keeps its own (it dates the
// numbers first written there).
func mergedChaosDoc(j *job, sections map[string]any) map[string]any {
	doc := map[string]any{}
	if data, err := os.ReadFile(j.json); err == nil {
		_ = json.Unmarshal(data, &doc) // an unreadable report is replaced
	}
	maps.Copy(doc, sections)
	for k, v := range harness.Envelope("chaos") {
		if _, ok := doc[k]; !ok {
			doc[k] = v
		}
	}
	j.record(doc)
	return doc
}

// chaosMarkdown renders the comparison for results/.
func chaosMarkdown(j *job, cfg harness.ChaosConfig, rep *harness.ChaosReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Chaos run: availability and tail latency under injected faults\n\n")
	fmt.Fprintf(&sb, "Measured by %s on %s.\n\n", j.ran(), harness.Host())
	fmt.Fprintf(&sb, "Workload: %d scoring queries, backend %s, %d clients, per-query deadline %v.\n\n",
		cfg.Load.Queries, cfg.Load.Backend, cfg.Clients, cfg.Deadline)
	fmt.Fprintf(&sb, "Fault plan (seed %d): `%s`\n\n", rep.Seed, rep.Plan)
	tbl := harness.NewTable(&sb, []harness.Col{
		{"run", "%s"}, {"ok:", "%d"}, {"deadline:", "%d"}, {"rejected:", "%d"}, {"errors:", "%d"},
		{"wrong:", "%d"}, {"availability:", "%.1f%%"}, {"p50:", "%v"}, {"p99:", "%v"}, {"faults:", "%.0f"},
		{"fallbacks:", "%.0f"},
	})
	for _, r := range []*harness.ChaosRun{rep.Healthy, rep.Chaos} {
		tbl.Row(r.Label, r.Ok, r.DeadlineExceeded, r.Rejected, r.OtherErrors+r.Canceled,
			r.Wrong, 100*r.Availability, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.FaultsInjected, r.Fallbacks)
	}
	sb.WriteString("\nEvery successful answer is checked bit-for-bit against a fault-free serial " +
		"oracle over the same deterministic stream: injected faults may cost latency and — past " +
		"the deadline — availability, but they never change a returned prediction. Every " +
		"accelerator fault (busy, corrupt, crash, or a hang cut short by the attempt timeout) " +
		"degrades its query to the CPU engine, which is what keeps availability up when the " +
		"accelerator misbehaves.\n")
	return &sb
}

// benchDoc assembles the JSON artifact on the common envelope.
func benchDoc(j *job, cfg harness.LoadConfig, opt harness.RunOptions, reports []*harness.LoadReport) map[string]any {
	speedups := map[string]float64{}
	base := reports[0]
	for _, r := range reports[1:] {
		if base.ThroughputQPS > 0 {
			speedups[r.Label] = r.ThroughputQPS / base.ThroughputQPS
		}
	}
	doc := j.envelope("throughput")
	doc["workload"] = map[string]any{
		"queries": cfg.Queries,
		"seed":    cfg.Seed,
		"backend": cfg.Backend,
		"rows":    cfg.TableRows,
		"trees":   cfg.TreeChoices,
		"depths":  cfg.DepthChoices,
		"clients": opt.Clients,
		"slo":     obs.FormatSLOSpec(opt.SLO),
	}
	doc["reports"] = reports
	doc["speedup_vs_serialized"] = speedups
	return doc
}

// throughputMarkdown renders the matrix as a table for results/.
func throughputMarkdown(j *job, cfg harness.LoadConfig, opt harness.RunOptions, reports []*harness.LoadReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Serving throughput: serialized mutex vs concurrent executor\n\n")
	fmt.Fprintf(&sb, "Measured by %s on %s.\n\n", j.ran(), harness.Host())
	fmt.Fprintf(&sb, "Workload: %d scoring queries over a %d-row table, models %v trees x %v depth, backend %s, "+
		"closed-loop with %d concurrent clients.\n\n",
		cfg.Queries, cfg.TableRows, cfg.TreeChoices, cfg.DepthChoices, cfg.Backend, opt.Clients)
	cols := []harness.Col{
		{"configuration", "%s"}, {"ok:", "%d"}, {"rejected:", "%d"}, {"throughput (qps):", "%.1f"},
		{"mean:", "%v"}, {"p50:", "%v"}, {"p99:", "%v"},
	}
	haveSLO := len(reports) > 0 && len(reports[0].SLO) > 0
	if haveSLO {
		fmt.Fprintf(&sb, "Latency objectives: `%s` — queries are classified by record count "+
			"(geometric bands, smallest records get the tightest objective); goodput is the "+
			"fraction answered successfully within objective.\n\n", obs.FormatSLOSpec(opt.SLO))
		cols = append(cols, harness.Col{"goodput:", "%.1f%%"})
	}
	cols = append(cols, harness.Col{"speedup:", "%.2fx"})
	tbl := harness.NewTable(&sb, cols)
	for _, r := range reports {
		speed := 1.0
		if base := reports[0].ThroughputQPS; base > 0 {
			speed = r.ThroughputQPS / base
		}
		row := []any{r.Label, r.Ok, r.Rejected, r.ThroughputQPS, r.Mean.Round(time.Microsecond),
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond)}
		if haveSLO {
			row = append(row, 100*r.Goodput)
		}
		tbl.Row(append(row, speed)...)
	}
	if haveSLO {
		sb.WriteString("\n## Per-class goodput\n\n")
		tbl = harness.NewTable(&sb, []harness.Col{
			{"configuration", "%s"}, {"class", "%s"}, {"objective:", "%v"},
			{"good / total:", "%s"}, {"goodput:", "%.1f%%"},
		})
		for _, r := range reports {
			for _, c := range r.SLO {
				tbl.Row(r.Label, c.Class, c.Objective, fmt.Sprintf("%d / %d", c.Good, c.Total), 100*c.Goodput)
			}
		}
	}
	sb.WriteString("\nEach configuration runs against a fresh environment (cold model cache). " +
		"One query is one pipeline run in every row; structural model validation is paid once per " +
		"cache entry, the serialized baseline included.\n")
	return &sb
}
