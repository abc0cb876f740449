// Command bench is the repository's one benchmark of the serving tier: it
// builds cmd/serve and cmd/router as shipped, boots two shards and a router
// on loopback with default flags, drives one of four closed-loop workloads
// over HTTP, checks every reply against an in-process single-node oracle,
// and prints every metric by name with its unit. README.md in this directory
// is the catalogue: why each workload exists, what each metric measures, on
// which clock, and what it should move.
//
// Usage (from the repository root):
//
//	go run ./bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-smoke] [-out dir]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// buildDir holds what the benchmark builds and its per-run scratch; the
	// driver points compiled artefacts at the same place.
	buildDir = ".bench_build"
	// windowSlices is how many equal slices qps and latency_p50_ms take
	// their median over.
	windowSlices = 5
	// setupRounds is how many times a run sets the tier up; setup_s is the
	// median, and the last fleet serves the run.
	setupRounds = 5
)

type config struct {
	seed   uint64
	window time.Duration
	trace  bool
	sz     sizes
	outDir string
	binDir string
	// rec collects the traced pass's spans of every workload of this
	// invocation; it is written once, at exit.
	rec *recorder
}

// result is what one workload's run reports.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"`
	Error     string `json:"error,omitempty"`
	// SliceQPS and SliceP50ms are the window's slices behind qps and
	// latency_p50_ms: their scatter is the within-run noise.
	SliceQPS   []float64 `json:"slice_qps"`
	SliceP50ms []float64 `json:"slice_p50_ms"`
	EndToEnd   metricSet `json:"end_to_end"`
	PerLayer   metricSet `json:"per_layer"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "run only this workload (default: all four, one after another)")
	seed := flag.Uint64("seed", 1, "seed of the table contents, the @limit draws and the inserted rows")
	seconds := flag.Int("seconds", 20, "length of the measured window; the warm-up before it is a sixth of this")
	trace := flag.Int("trace", 1, "1 adds the traced pass after the window and reports the per-layer metrics; 0 reports the end-to-end metrics only")
	smoke := flag.Bool("smoke", false, "4 s window and 5k-row tables: a seconds-long check that everything runs, not a measurement")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace.json and the tier's logs")
	flag.Parse()

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace != 0,
		sz: fullSizes, outDir: *outDir, binDir: filepath.Join(buildDir, "bin"), rec: newRecorder()}
	if *smoke {
		cfg.window, cfg.sz = 4*time.Second, smokeSizes
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	if cfg.window <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	// SIGINT/SIGTERM cancel the run; every fleet is stopped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, dir := range []string{cfg.outDir, cfg.binDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := buildBinaries(ctx, cfg.binDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	code := 0
	var results []*result
	for _, w := range todo {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
		res.print(os.Stdout)
		code = max(code, res.exitCode())
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.trace {
		if err := cfg.rec.writeChrome(filepath.Join(cfg.outDir, "trace.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable verdict of
	// the (last) workload: the per-layer metrics with -trace 1, the
	// end-to-end ones with -trace 0.
	last := results[len(results)-1]
	picked := last.EndToEnd
	if cfg.trace {
		picked = last.PerLayer
	}
	line, err := json.Marshal(map[string]any{"correct": last.Correct, "attempted": last.Attempted,
		"failed": last.Failed, "metrics": picked})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// tally folds the clients' counts into a result and returns every verified
// operation. One wrong, refused or missing reply makes the run incorrect.
func tally(w workload, seed uint64, clients []*client) (*result, []op) {
	res := &result{Workload: w.name, Seed: seed}
	var ops []op
	var firstErr error
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		ops = append(ops, c.ops...)
		firstErr = errors.Join(firstErr, c.firstErr)
	}
	res.Correct = res.Failed == 0 && firstErr == nil && len(ops) > 0
	if firstErr != nil {
		res.Error = firstErr.Error()
	}
	return res, ops
}

// exitCode is non-zero when any reply was wrong, refused or missing.
func (r *result) exitCode() int {
	if !r.Correct {
		return 1
	}
	return 0
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "== %s  seed %d  attempted %d  failed %d  samples %d\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Samples)
	if r.Error != "" {
		fmt.Fprintf(f, "first failure: %s\n", r.Error)
	}
	for _, set := range []*metricSet{&r.EndToEnd, &r.PerLayer} {
		for _, name := range set.names {
			m := set.m[name]
			fmt.Fprintf(f, "%-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is the tier's counters at one instant, read outside the window.
type snapshot struct {
	stats  []procStat // fleet.procs() order: shards, then the router
	shards promSeries // summed over the shards
	router promSeries
	self   time.Duration
}

func takeSnapshot(f *fleet, hc *http.Client) (*snapshot, error) {
	s := &snapshot{shards: promSeries{}, self: selfCPU()}
	for _, p := range f.procs() {
		st, err := p.stat()
		if err != nil {
			return nil, err
		}
		s.stats = append(s.stats, st)
		page, err := p.scrape(hc)
		if err != nil {
			return nil, err
		}
		if p == f.router {
			s.router = page
		} else {
			s.shards.add(page)
		}
	}
	return s, nil
}

// runWorkload is one complete run: inputs from the seed, the tier set up
// setupRounds times, the oracle, warm-up, the measured window between two
// snapshots, and (with -trace 1) the traced pass.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	warmup := cfg.window / 6
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	in, err := makeInputs(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	// The traced pass issues up to a few hundred more operations.
	sched := makeSchedule(cfg.seed, warmup+cfg.window+2*time.Second)

	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients},
		Timeout:   60 * time.Second,
	}
	defer hc.CloseIdleConnections()

	seedDir := filepath.Join(runDir, "seed")
	var fl *fleet
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if fl != nil {
			fl.stop()
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		if err := os.RemoveAll(seedDir); err != nil {
			return nil, err
		}
		if err := in.seedDir(seedDir); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
		if fl, err = bootFleet(ctx, hc, cfg.binDir, seedDir, runDir, filepath.Join(cfg.outDir, w.name+"-")); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fl.stop()

	oracleDir := filepath.Join(runDir, "oracle")
	if err := copyDir(seedDir, oracleDir); err != nil {
		return nil, err
	}
	orc, err := buildOracle(oracleDir, w, cfg.sz, sched)
	if err != nil {
		return nil, err
	}

	// The generator shares two cores with the tier: drop the seeded tables
	// now, so that its own collector has next to nothing to trace while the
	// window runs.
	in.tables = nil
	runtime.GC()

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{id: i, w: w, http: hc, fleet: fl, sched: sched, orc: orc, sz: cfg.sz}
	}
	simTotal, err := clients[0].probeSim(ctx)
	if err != nil {
		return nil, err
	}
	runPhase(ctx, clients, warmup, false)
	before, err := takeSnapshot(fl, hc)
	if err != nil {
		return nil, err
	}
	runPhase(ctx, clients, cfg.window, true)
	after, err := takeSnapshot(fl, hc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res, ops := tally(w, cfg.seed, clients)

	// End to end, on the host clock.
	var samples []sample
	var latencies, inserts, scores []float64
	for _, o := range ops {
		if o.done >= cfg.window {
			continue // finished after the window; counted only for CPU per query
		}
		samples = append(samples, o.sample)
		latencies = append(latencies, ms(o.latency))
		inserts = append(inserts, ms(o.insert))
		scores = append(scores, ms(o.score))
	}
	res.Samples = len(samples)
	sort.Float64s(latencies)
	p95, err := percentile(latencies, 0.95)
	if err != nil {
		return nil, fmt.Errorf("latency_p95_ms: %w", err)
	}
	qps, p50 := sliceStats(samples, cfg.window/windowSlices, windowSlices)
	res.SliceQPS, res.SliceP50ms = qps, p50
	cnt := windowCounters{length: cfg.window, ops: len(ops), clientCPU: after.self - before.self}
	for i, p := range fl.procs() {
		cpu := after.stats[i].cpu() - before.stats[i].cpu()
		rss := after.stats[i].rssPages * int64(os.Getpagesize())
		if p == fl.router {
			cnt.routerCPU, cnt.routerRSS = cpu, rss
		} else {
			cnt.shardCPU += cpu
			cnt.shardRSS = max(cnt.shardRSS, rss)
		}
	}
	res.EndToEnd.set("qps", median(qps), "1/s")
	res.EndToEnd.set("latency_p50_ms", median(p50), "ms")
	res.EndToEnd.set("cpu_ms_per_query", ratio(ms(cnt.shardCPU+cnt.routerCPU), float64(len(ops))), "ms")
	res.EndToEnd.set("setup_s", median(setups), "s")

	// Per layer: the window's deltas, then the traced pass.
	if w.name == "ingest_then_score" {
		cnt.insertStmts = len(ops)
	}
	res.PerLayer.set("latency_p95_ms", p95, "ms")
	windowLayers(&res.PerLayer, after.shards.sub(before.shards), after.router.sub(before.router), cnt)
	res.PerLayer.set("ingest.insert_p50_ms", median(inserts), "ms")
	res.PerLayer.set("ingest.score_p50_ms", median(scores), "ms")
	res.PerLayer.set("sim.total_ns", float64(simTotal), "ns")
	if cfg.trace && res.Correct {
		traceDir := filepath.Join(runDir, "trace")
		if err := copyDir(seedDir, traceDir); err != nil {
			return nil, err
		}
		cfg.rec.workload = w.name
		if err := tracePass(ctx, cfg.rec, &res.PerLayer, clients[0], in, traceDir); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return res, nil
}
