// Command loadgen is the repository's measurement driver: it replays a
// generated workload against the real serving code — in-process or as real
// serve processes behind the router — verifies every answer against a
// single-node oracle, and writes a JSON artifact on the shared envelope plus
// a markdown table under results/. A mode is a workload description and its
// verdict gates; booting processes, driving clients, checking answers,
// percentiles and report rendering are internal/harness. Six modes:
//
//   - default: one scoring stream through the serialized global-mutex
//     baseline and through the concurrent executor, next to the scheduling
//     simulator's prediction; -bench runs the executor at 1/4/8 workers
//     (BENCH_throughput.json, throughput_bench.md).
//   - -chaos: the stream healthy and under a fault plan; faults may cost
//     latency and availability, never a prediction (CHAOS_report.json).
//   - -bench-fusion: WHERE pushed into the kernel against
//     score-all-then-filter, selectivity x table width (BENCH_fusion.json).
//   - -chaos-restart: SIGKILL a serve process under write load and restart
//     it; no acknowledged write lost, no phantom or corrupt row, predictions
//     bit-identical across recoveries (restart_chaos in CHAOS_report.json).
//   - -bench-scaleout: shards x records over real serve shards behind the
//     router against the scatter simulator's curve, then SIGKILL one shard
//     mid-run (BENCH_scaleout.json).
//   - -bench-overload: open-loop Poisson and burst arrivals past calibrated
//     saturation, then SIGKILL one shard and SIGSTOP/SIGCONT another under
//     load (BENCH_overload.json).
//
// Usage (-h lists every flag; -json and -seed apply to all modes):
//
//	loadgen [-bench] [-queries 200] [-rows 2048] [-backend CPU_SKLearn]
//	        [-trees 8,32,128] [-depths 6,10] [-clients 8] [-open] [-slo spec]
//	        [-workers 0] [-queue 64]
//	loadgen -chaos [-faults plan] [-fault-seed 1] [-deadline 2s] [-retries 3]
//	loadgen -bench-fusion [-selectivities 0.01,0.1,0.5,1] [-repeats 5] [-junk 46]
//	loadgen -chaos-restart [-serve-bin path] [-kills 3] [-write-for 1s] [-fsync always]
//	loadgen -bench-scaleout [-serve-bin path] [-scale-shards 1,2,4] [-scale-records ...]
//	loadgen -bench-overload [-serve-bin path] [-overload-shards 3] [-overload-mults 0.5,1,2]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/harness"
	"accelscore/internal/obs"
)

func main() {
	log.SetFlags(0)
	var o options
	flag.IntVar(&o.queries, "queries", 200, "number of queries in the generated stream")
	flag.Uint64Var(&o.seed, "seed", 1, "workload generator seed")
	flag.StringVar(&o.backend, "backend", "CPU_SKLearn", "backend every query requests ('auto' routes through the advisor)")
	flag.IntVar(&o.rows, "rows", 2048, "rows in the scoring input table (per-query @limit is drawn from [1, rows])")
	flag.StringVar(&o.trees, "trees", "8,32,128", "comma-separated tree counts for the model zoo")
	flag.StringVar(&o.depths, "depths", "6,10", "comma-separated tree depths for the model zoo")
	flag.IntVar(&o.workers, "workers", 0, "executor workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue", 64, "executor admission queue depth")
	flag.IntVar(&o.clients, "clients", 8, "closed-loop client count")
	flag.BoolVar(&o.openLoop, "open", false, "replay at generated arrival times instead of closed-loop")
	flag.StringVar(&o.slo, "slo", "",
		"per-class latency objectives, e.g. 'interactive=25ms,batch=500ms'; queries are classified "+
			"by record count (geometric bands over [1, rows], smallest records -> tightest objective) "+
			"and reports gain per-class goodput")
	flag.StringVar(&o.jsonOut, "json", "", "write the reports as JSON to this path")
	flag.BoolVar(&o.bench, "bench", false, "run the serialized-vs-executor matrix and write results/throughput_bench.md + BENCH_throughput.json")
	flag.BoolVar(&o.benchFusion, "bench-fusion", false, "run the fused-vs-unfused selectivity matrix and write results/fusion_bench.md + BENCH_fusion.json")
	flag.StringVar(&o.selectivities, "selectivities", "0.01,0.1,0.5,1", "WHERE pass fractions for -bench-fusion")
	flag.IntVar(&o.repeats, "repeats", 5, "measured repetitions per -bench-fusion cell (median reported)")
	flag.IntVar(&o.junkCols, "junk", 46, "non-feature REAL columns padding the -bench-fusion wide table")
	flag.BoolVar(&o.chaos, "chaos", false, "run the healthy-vs-chaos comparison and write results/chaos_report.md + CHAOS_report.json")
	flag.StringVar(&o.faultSpec, "faults", harness.DefaultChaosPlan, "fault plan for -chaos (backend:boundary:kind[:trigger];...)")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault injector seed for -chaos")
	flag.DurationVar(&o.deadline, "deadline", 2*time.Second, "per-query deadline for -chaos (0 = none)")
	flag.IntVar(&o.retries, "retries", 3, "max retries per query for -chaos")
	flag.DurationVar(&o.attemptTimeout, "attempt-timeout", 150*time.Millisecond, "per-attempt hang-detection timeout for -chaos (0 = off)")
	flag.BoolVar(&o.chaosRestart, "chaos-restart", false,
		"SIGKILL a real serve process under write load, restart it, and verify no acked write is lost and predictions stay bit-identical")
	flag.StringVar(&o.serveBin, "serve-bin", "", "prebuilt serve binary for -chaos-restart (empty builds one)")
	flag.IntVar(&o.kills, "kills", 3, "kill/restart cycles for -chaos-restart")
	flag.DurationVar(&o.writeFor, "write-for", time.Second, "write-load window per -chaos-restart cycle")
	flag.StringVar(&o.fsync, "fsync", "always", "serve WAL sync policy for -chaos-restart (always|batch|none)")
	flag.BoolVar(&o.benchScaleout, "bench-scaleout", false,
		"boot real serve shards behind the router, sweep shards x records, verify bit-identical merges, "+
			"and write results/scaleout_bench.md + BENCH_scaleout.json")
	flag.StringVar(&o.scaleShards, "scale-shards", "1,2,4", "shard counts for -bench-scaleout (1 anchors speedups)")
	flag.StringVar(&o.scaleRecords, "scale-records", "2000,50000,400000", "demo table sizes for -bench-scaleout")
	flag.IntVar(&o.scaleQueries, "scale-queries", 8, "closed-loop queries per -bench-scaleout cell")
	flag.StringVar(&o.scaleBackend, "scale-backend", "CPU_ONNX", "engine every -bench-scaleout query requests")
	flag.Float64Var(&o.paceScale, "pace-scale", 1,
		"shard pacing multiple of the simulated total for -bench-scaleout (each shard = one simulated device)")
	flag.BoolVar(&o.scaleChaos, "scale-chaos", true, "run the SIGKILL-one-shard leg of -bench-scaleout")
	flag.Float64Var(&o.scaleMinSpeedup, "scale-min-speedup", 0,
		"fail -bench-scaleout unless the widest scatter reaches this measured speedup (0 = report only)")
	flag.BoolVar(&o.benchOverload, "bench-overload", false,
		"run the open-loop overload + chaos survival bench and write results/overload_bench.md + BENCH_overload.json")
	flag.IntVar(&o.overloadShards, "overload-shards", 3,
		"tier width for -bench-overload (>= 3: straggler + kill victim + flap victim)")
	flag.IntVar(&o.overloadRecords, "overload-records", 500, "demo table size per -bench-overload shard")
	flag.DurationVar(&o.overloadCell, "overload-cell", 2*time.Second, "open-loop window per -bench-overload sweep cell")
	flag.StringVar(&o.overloadMults, "overload-mults", "0.5,1,2",
		"offered load points for -bench-overload, as multiples of calibrated saturation")
	flag.DurationVar(&o.overloadDeadline, "overload-deadline", 2*time.Second,
		"per-query deadline carried by -bench-overload arrivals")
	flag.Float64Var(&o.overloadSlowFactor, "overload-slow-factor", 2,
		"pace multiplier for the -bench-overload straggler shard")
	flag.IntVar(&o.overloadInFlight, "overload-inflight", 0,
		"router MaxInFlight for -bench-overload (0 = 2x shards)")
	flag.BoolVar(&o.overloadChaos, "overload-chaos", true,
		"run the SIGKILL + SIGSTOP/SIGCONT flap cell of -bench-overload")
	flag.DurationVar(&o.routerOverhead, "router-overhead", 5*time.Millisecond,
		"fixed per-sub-query overhead fed to the predicted scaling curve")
	flag.Parse()

	// A mode presets its own regime for flags the user did not pin.
	pinned := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { pinned[f.Name] = true })
	preset := func(defaults ...string) {
		for i := 0; i < len(defaults); i += 2 {
			if !pinned[defaults[i]] {
				if err := flag.Set(defaults[i], defaults[i+1]); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	run := runThroughput
	switch {
	case o.benchOverload:
		preset("json", "BENCH_overload.json")
		run = runOverloadBench
	case o.benchScaleout:
		preset("json", "BENCH_scaleout.json")
		run = runScaleoutBench
	case o.chaosRestart:
		preset("json", "CHAOS_report.json")
		run = runRestartChaos
	case o.benchFusion:
		// A scoring-dominated regime (big forest, big table) where skipped
		// rows are visible wins.
		preset("json", "BENCH_fusion.json", "rows", "8192", "trees", "256", "depths", "10")
		run = runFusionBench
	case o.chaos:
		// An accelerator-targeted stream (the plan injects FPGA faults) sized
		// to finish quickly.
		preset("json", "CHAOS_report.json", "backend", "FPGA", "queries", "120", "rows", "256")
		run = runChaos
	case o.bench:
		// The default stream over the default table. The objectives are loose
		// enough that a healthy run on modest hardware meets them, tight
		// enough that the serialized baseline's queueing shows up as burned
		// budget.
		preset("json", "BENCH_throughput.json", "slo", "interactive=100ms,batch=1s")
	}
	if err := run(&o); err != nil {
		log.Fatal(err)
	}
}

// options is every loadgen flag, as parsed (list flags stay text until the
// mode that reads them parses them); main's help strings document each.
type options struct {
	seed     uint64
	jsonOut  string
	serveBin string

	// The generated stream and the executor under it: default, -bench, -chaos.
	bench, openLoop             bool
	queries, rows, clients      int
	backend, trees, depths, slo string
	workers, queueDepth         int

	chaos                    bool
	faultSpec                string
	faultSeed                uint64
	retries                  int
	deadline, attemptTimeout time.Duration

	benchFusion       bool
	selectivities     string
	repeats, junkCols int

	chaosRestart bool
	kills        int
	writeFor     time.Duration
	fsync        string

	// -scale-backend and -pace-scale also shape the -bench-overload tier.
	benchScaleout, scaleChaos  bool
	scaleShards, scaleRecords  string
	scaleBackend               string
	scaleQueries               int
	paceScale, scaleMinSpeedup float64
	routerOverhead             time.Duration

	benchOverload, overloadChaos                      bool
	overloadShards, overloadRecords, overloadInFlight int
	overloadMults                                     string
	overloadSlowFactor                                float64
	overloadCell, overloadDeadline                    time.Duration
}

// loadConfig is the stream the flags describe.
func (o *options) loadConfig() harness.LoadConfig {
	return harness.LoadConfig{
		Queries:      o.queries,
		Seed:         o.seed,
		Backend:      o.backend,
		TableRows:    o.rows,
		TreeChoices:  intList(o.trees),
		DepthChoices: intList(o.depths),
	}
}

// execConfig is the executor the flags describe.
func (o *options) execConfig() exec.Config {
	return exec.Config{Workers: o.workers, QueueDepth: o.queueDepth}
}

// parseList parses a comma-separated flag value, e.g. "8,32,128".
func parseList[T any](s string, parse func(string) (T, error)) []T {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			log.Fatalf("bad list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func intList(s string) []int { return parseList(s, strconv.Atoi) }

func floatList(s string) []float64 {
	return parseList(s, func(part string) (float64, error) { return strconv.ParseFloat(part, 64) })
}

// runThroughput replays the stream through the serialized baseline and the
// executor, each against a fresh environment so the model cache and snapshot
// cache start cold and no run warms another's state. The default mode runs
// the executor once as configured and prints the simulator's prediction for
// the same stream; bench runs it at 1/4/8 workers and writes the markdown
// table and JSON artifact the repo's benchmark docs reference.
func runThroughput(o *options) error {
	cfg, ecfg := o.loadConfig(), o.execConfig()
	objectives, err := obs.ParseSLOSpec(o.slo)
	if err != nil {
		return err
	}
	opt := harness.RunOptions{Clients: o.clients, OpenLoop: o.openLoop, SLO: objectives}
	mode := fmt.Sprintf("closed-loop, %d clients", opt.Clients)
	if opt.OpenLoop {
		mode = "open-loop (generated arrival times)"
	}
	log.Printf("loadgen: %d queries, backend %s, %d-row table, models %v x %v, %s",
		cfg.Queries, cfg.Backend, cfg.TableRows, cfg.TreeChoices, cfg.DepthChoices, mode)

	// A nil config is the serialized baseline.
	type row struct {
		label string
		exec  *exec.Config
	}
	rows := []row{{"serialized", nil}, {"executor", &ecfg}}
	if o.bench {
		rows = rows[:1]
		for _, workers := range []int{1, 4, 8} {
			rows = append(rows, row{fmt.Sprintf("executor w%d", workers),
				&exec.Config{Workers: workers, QueueDepth: ecfg.QueueDepth}})
		}
	}
	var reports []*harness.LoadReport
	for _, row := range rows {
		env, err := harness.BuildLoadEnv(cfg, obs.NewObserver())
		if err != nil {
			return err
		}
		var runner harness.QueryRunner = &harness.SerializedRunner{Pipe: env.Pipe}
		if row.exec != nil {
			runner = exec.New(env.Pipe, *row.exec)
		}
		rep, err := harness.RunLoad(env, runner, row.label, opt)
		if err != nil {
			return err
		}
		log.Println(rep)
		reports = append(reports, rep)
	}
	doc := benchDoc(cfg, opt, reports)
	if o.bench {
		return harness.WriteReport(o.jsonOut, doc, "throughput_bench.md", throughputMarkdown(cfg, opt, reports))
	}

	if reports[0].ThroughputQPS > 0 {
		log.Printf("speedup: %.2fx", reports[1].ThroughputQPS/reports[0].ThroughputQPS)
	}
	env, err := harness.BuildLoadEnv(cfg, nil)
	if err != nil {
		return err
	}
	m, err := env.Simulate()
	if err != nil {
		return err
	}
	log.Printf("simulator (static %s): makespan %v  mean %v  p50 %v  p99 %v",
		cfg.Backend, m.Makespan.Round(time.Millisecond), m.MeanLatency.Round(time.Microsecond),
		m.P50.Round(time.Microsecond), m.P99.Round(time.Microsecond))
	if o.jsonOut != "" {
		return harness.WriteJSON(o.jsonOut, doc)
	}
	return nil
}

// runChaos runs the healthy-vs-chaos comparison, writes the artifacts and
// fails hard if chaos ever changed a returned prediction — the one invariant
// graceful degradation must keep.
func runChaos(o *options) error {
	cfg := harness.ChaosConfig{
		Load:      o.loadConfig(),
		Exec:      o.execConfig(),
		Clients:   o.clients,
		FaultSpec: o.faultSpec,
		FaultSeed: o.faultSeed,
		Deadline:  o.deadline,
	}
	cfg.Exec.MaxRetries, cfg.Exec.AttemptTimeout = o.retries, o.attemptTimeout
	log.Printf("chaos: %d queries, backend %s, plan %q, seed %d, deadline %v, retries %d, attempt-timeout %v",
		cfg.Load.Queries, cfg.Load.Backend, cfg.FaultSpec, cfg.FaultSeed, cfg.Deadline,
		cfg.Exec.MaxRetries, cfg.Exec.AttemptTimeout)
	rep, err := harness.RunChaos(cfg)
	if err != nil {
		return err
	}
	log.Println(rep.Healthy)
	log.Println(rep.Chaos)
	if err := harness.WriteReport(o.jsonOut, chaosDoc(cfg, rep), "chaos_report.md", chaosMarkdown(cfg, rep)); err != nil {
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

// chaosDoc assembles the chaos JSON artifact on the common envelope.
func chaosDoc(cfg harness.ChaosConfig, rep *harness.ChaosReport) map[string]any {
	doc := harness.Envelope("chaos")
	doc["plan"] = rep.Plan
	doc["fault_seed"] = rep.Seed
	doc["deadline"] = cfg.Deadline.String()
	doc["workload"] = map[string]any{
		"queries": cfg.Load.Queries,
		"seed":    cfg.Load.Seed,
		"backend": cfg.Load.Backend,
		"rows":    cfg.Load.TableRows,
		"clients": cfg.Clients,
	}
	doc["healthy"] = rep.Healthy
	doc["chaos"] = rep.Chaos
	return doc
}

// chaosMarkdown renders the comparison for results/.
func chaosMarkdown(cfg harness.ChaosConfig, rep *harness.ChaosReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Chaos run: availability and tail latency under injected faults\n\n")
	fmt.Fprintf(&sb, "Measured by `go run ./cmd/loadgen -chaos` on %s.\n\n", harness.Host())
	fmt.Fprintf(&sb, "Workload: %d scoring queries, backend %s, %d clients, per-query deadline %v.\n\n",
		cfg.Load.Queries, cfg.Load.Backend, cfg.Clients, cfg.Deadline)
	fmt.Fprintf(&sb, "Fault plan (seed %d): `%s`\n\n", rep.Seed, rep.Plan)
	tbl := harness.NewTable(&sb, []harness.Col{
		{"run", "%s"}, {"ok:", "%d"}, {"deadline:", "%d"}, {"rejected:", "%d"}, {"errors:", "%d"},
		{"wrong:", "%d"}, {"availability:", "%.1f%%"}, {"p50:", "%v"}, {"p99:", "%v"}, {"faults:", "%.0f"},
		{"retries:", "%.0f"}, {"fallbacks:", "%.0f"}, {"breaker transitions:", "%.0f"},
	})
	for _, r := range []*harness.ChaosRun{rep.Healthy, rep.Chaos} {
		tbl.Row(r.Label, r.Ok, r.DeadlineExceeded, r.Rejected, r.OtherErrors+r.Canceled,
			r.Wrong, 100*r.Availability, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.FaultsInjected, r.Retries, r.Fallbacks, r.BreakerTransitions)
	}
	sb.WriteString("\nEvery successful answer is checked bit-for-bit against a fault-free serial " +
		"oracle over the same deterministic stream: injected faults may cost retries, latency " +
		"and — past the deadline — availability, but they never change a returned prediction. " +
		"Retryable faults (busy, corrupt, detected hangs) are absorbed by bounded retry with " +
		"jittered backoff; fatal crashes and open circuit breakers degrade the query to the " +
		"CPU engine, which is what keeps availability up when the accelerator misbehaves.\n")
	return &sb
}

// benchDoc assembles the JSON artifact on the common envelope.
func benchDoc(cfg harness.LoadConfig, opt harness.RunOptions, reports []*harness.LoadReport) map[string]any {
	speedups := map[string]float64{}
	base := reports[0]
	for _, r := range reports[1:] {
		if base.ThroughputQPS > 0 {
			speedups[r.Label] = r.ThroughputQPS / base.ThroughputQPS
		}
	}
	doc := harness.Envelope("throughput")
	doc["workload"] = map[string]any{
		"queries":   cfg.Queries,
		"seed":      cfg.Seed,
		"backend":   cfg.Backend,
		"rows":      cfg.TableRows,
		"trees":     cfg.TreeChoices,
		"depths":    cfg.DepthChoices,
		"clients":   opt.Clients,
		"open_loop": opt.OpenLoop,
		"slo":       obs.FormatSLOSpec(opt.SLO),
	}
	doc["reports"] = reports
	doc["speedup_vs_serialized"] = speedups
	return doc
}

// throughputMarkdown renders the matrix as a table for results/.
func throughputMarkdown(cfg harness.LoadConfig, opt harness.RunOptions, reports []*harness.LoadReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Serving throughput: serialized mutex vs concurrent executor\n\n")
	fmt.Fprintf(&sb, "Measured by `go run ./cmd/loadgen -bench` on %s.\n\n", harness.Host())
	fmt.Fprintf(&sb, "Workload: %d scoring queries over a %d-row table, models %v trees x %v depth, backend %s, ",
		cfg.Queries, cfg.TableRows, cfg.TreeChoices, cfg.DepthChoices, cfg.Backend)
	if opt.OpenLoop {
		sb.WriteString("open-loop replay at generated arrival times.\n\n")
	} else {
		fmt.Fprintf(&sb, "closed-loop with %d concurrent clients.\n\n", opt.Clients)
	}
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
