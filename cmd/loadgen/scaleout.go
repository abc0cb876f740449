// Scale-out bench: measure the sharded scatter-gather tier for real. The
// harness boots N serve processes as shards (each pinned to -workers 1 with
// -pace-scale, so one shard behaves like one simulated scoring device),
// fronts them with the router, and sweeps shard count x record count under a
// closed-loop client population. Every repetition's merged predictions are
// verified bit-identical against an in-process single-node oracle before its
// timing counts — a scale-out tier that returns different answers has no
// throughput worth reporting.
//
// The measured curve is written next to the sched scatter simulator's
// predicted curve (same workload, same shard counts), so the gap — HTTP,
// JSON, the gather barrier's straggler tax — is a number, not a feeling.
// This is the paper's overheads question asked at tier scale: partitioning
// buys parallel scoring, but the per-sub-query invocation costs do not
// amortize as the scatter widens.
//
// A chaos leg SIGKILLs one shard mid-run and asserts the router's
// degradation contract: queries may fail or reroute, but a successful
// answer is always bit-identical — never silently wrong or partial.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"accelscore/internal/harness"
	"accelscore/internal/router"
	"accelscore/internal/sched"
)

// scaleCell is one measured sweep point.
type scaleCell struct {
	Records          int     `json:"records"`
	Shards           int     `json:"shards"`
	Queries          int     `json:"queries"`
	MakespanNS       int64   `json:"makespan_ns"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	Speedup          float64 `json:"speedup"`
	MeanLatencyNS    int64   `json:"mean_latency_ns"`
	MeanStragglerNS  int64   `json:"mean_straggler_gap_ns"`
	Reroutes         int     `json:"reroutes"`
	CacheHits        int     `json:"cache_hits"`
	BitIdentical     bool    `json:"verified_bit_identical"`
	PredictedQPS     float64 `json:"predicted_queries_per_sec"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	PredictedLatNS   int64   `json:"predicted_mean_latency_ns"`
}

// scaleChaos is the SIGKILL leg's verdict.
type scaleChaos struct {
	Shards           int    `json:"shards"`
	Records          int    `json:"records"`
	KilledShard      int    `json:"killed_shard"`
	QueriesOK        int    `json:"queries_ok"`
	QueriesFailed    int    `json:"queries_failed"`
	OKAfterKill      int    `json:"ok_after_kill"`
	Reroutes         int    `json:"reroutes"`
	WrongPredictions int    `json:"wrong_predictions"`
	Verdict          string `json:"verdict"`
}

// routerOverhead is the fixed per-sub-query cost fed to the predicted
// scaling curve.
const routerOverhead = 5 * time.Millisecond

// demoRouter fronts backends with a default-configured router, demo model
// warmed.
func demoRouter(backends []router.Backend) (*router.Router, error) {
	return router.New(router.Config{Backends: backends, WarmModels: []string{"iris_rf"}})
}

// runScaleCell measures one (records, shards) sweep point: queries issued
// closed-loop by `shards` clients through a fresh router, every merged
// result verified against the oracle. With all shards healthy, anything but
// a bit-identical answer fails the cell.
func runScaleCell(backends []router.Backend, queries int, oracle *harness.DemoOracle) (*scaleCell, error) {
	shards := len(backends)
	r, err := demoRouter(backends)
	if err != nil {
		return nil, err
	}
	var routing harness.Routing
	run := harness.Closed(context.Background(), min(shards, queries), queries, 0, oracle.QueryOp(r, &routing))
	for _, s := range run.Samples {
		if s.Err != nil {
			return nil, fmt.Errorf("query %d on %d shards: %w", s.I, shards, s.Err)
		}
	}
	qps := float64(queries) / run.Wall.Seconds()
	return &scaleCell{
		Shards:          shards,
		Queries:         queries,
		MakespanNS:      int64(run.Wall),
		BitIdentical:    true,
		QueriesPerSec:   qps,
		RowsPerSec:      qps * float64(len(oracle.Predictions)),
		MeanLatencyNS:   int64(routing.SlowestShard) / int64(queries),
		MeanStragglerNS: int64(routing.StragglerGap) / int64(queries),
		Reroutes:        routing.Reroutes,
		CacheHits:       routing.CacheHits,
	}, nil
}

// runScaleChaos is the degradation leg: SIGKILL one shard while queries
// flow, then verify every successful answer stayed bit-identical and that
// the tier kept answering through reroutes after the kill.
func runScaleChaos(bin string, p scaleoutConfig, records int, oracle *harness.DemoOracle) (*scaleChaos, error) {
	const shards, killedShard = 3, 1
	fleet, err := harness.StartShards(bin, shards, records, func(int) float64 { return paceScale })
	if err != nil {
		return nil, err
	}
	defer fleet.Kill()
	r, err := demoRouter(fleet.Backends)
	if err != nil {
		return nil, err
	}
	queries := max(p.Queries*3, 12)
	killAfter := queries / 3
	var routing harness.Routing
	query := oracle.QueryOp(r, &routing)
	t := harness.Closed(context.Background(), shards, queries, 0, func(ctx context.Context, q int) error {
		if q == killAfter {
			log.Printf("scaleout: chaos SIGKILL shard %d mid-run", killedShard)
			routing.Mark()
			fleet.Procs[killedShard].Kill()
		}
		return query(ctx, q)
	}).Tally()

	rep := &scaleChaos{
		Shards: shards, Records: records, KilledShard: killedShard,
		QueriesOK:        t[harness.OK],
		QueriesFailed:    queries - t[harness.OK] - t[harness.Wrong],
		OKAfterKill:      routing.OKAfterMark,
		Reroutes:         routing.Reroutes,
		WrongPredictions: t[harness.Wrong], // a lost stripe fails its query: never counted here
		Verdict:          "pass",
	}
	if rep.WrongPredictions > 0 {
		rep.Verdict = "FAIL: wrong predictions"
		return rep, fmt.Errorf("scaleout chaos: %d queries returned wrong or partial predictions",
			rep.WrongPredictions)
	}
	if rep.OKAfterKill == 0 {
		rep.Verdict = "FAIL: no successful query after the kill"
		return rep, fmt.Errorf("scaleout chaos: tier never recovered after SIGKILL")
	}
	return rep, nil
}

// runScaleoutBench drives the full sweep and writes
// results/scaleout_bench.md + BENCH_scaleout.json.
func runScaleoutBench(p scaleoutConfig, j *job) error {
	bin, cleanup, err := harness.ServeBinary(j.serveBin)
	if err != nil {
		return err
	}
	defer cleanup()

	var cells []scaleCell
	var chaosRep *scaleChaos
	for _, records := range p.Records {
		log.Printf("scaleout: records=%d building single-node oracle", records)
		oracle, err := harness.NewDemoOracle(records, tierBackend)
		if err != nil {
			return err
		}
		predicted, err := sched.ScatterCurve(sched.ScatterConfig{
			Queries:  p.Queries,
			Records:  int64(records),
			Service:  oracle.Service,
			Overhead: routerOverhead,
		}, p.Shards)
		if err != nil {
			return err
		}
		swept, err := sweepShards(bin, p, records, oracle, predicted)
		if err != nil {
			return err
		}
		cells = append(cells, swept...)

		if chaosRep == nil { // the SIGKILL leg runs once, at the first record count
			chaosRep, err = runScaleChaos(bin, p, records, oracle)
			if err != nil {
				return err
			}
			log.Printf("scaleout: chaos: %d ok (%d after kill), %d failed, %d reroutes, %d wrong",
				chaosRep.QueriesOK, chaosRep.OKAfterKill, chaosRep.QueriesFailed,
				chaosRep.Reroutes, chaosRep.WrongPredictions)
		}
	}

	doc, best := scaleoutDoc(j, p, cells, chaosRep)
	return harness.WriteReport(j.json, doc, "scaleout_bench.md", scaleoutMarkdown(j, p, cells, chaosRep, best))
}

// scaleoutDoc assembles the scale-out JSON artifact on the common envelope
// and returns the best measured speedup at the widest scatter with it.
func scaleoutDoc(j *job, p scaleoutConfig, cells []scaleCell, chaosRep *scaleChaos) (doc map[string]any, best float64) {
	maxShards := slices.Max(p.Shards)
	for _, c := range cells {
		if c.Shards == maxShards {
			best = max(best, c.Speedup)
		}
	}
	doc = j.envelope("scaleout")
	doc["backend"] = tierBackend
	doc["pace_scale"] = paceScale
	doc["queries_per_cell"] = p.Queries
	doc["router_overhead_ns"] = int64(routerOverhead)
	doc["cells"] = cells
	doc["best_speedup_at_max_shards"] = best
	doc["chaos"] = chaosRep
	return doc, best
}

// sweepShards boots the widest tier once for one record count and measures
// every scatter width over a prefix of it; the first width anchors the
// speedups.
func sweepShards(bin string, p scaleoutConfig, records int,
	oracle *harness.DemoOracle, predicted []sched.ScatterPoint) ([]scaleCell, error) {
	fleet, err := harness.StartShards(bin, slices.Max(p.Shards), records, func(int) float64 { return paceScale })
	if err != nil {
		return nil, err
	}
	defer fleet.Kill()
	var cells []scaleCell
	for _, n := range p.Shards {
		log.Printf("scaleout: records=%d shards=%d: %d queries", records, n, p.Queries)
		cell, err := runScaleCell(fleet.Backends[:n], p.Queries, oracle)
		if err != nil {
			return nil, err
		}
		cell.Records = records
		base := cell.QueriesPerSec
		if len(cells) > 0 {
			base = cells[0].QueriesPerSec
		}
		cell.Speedup = cell.QueriesPerSec / base
		for _, p := range predicted {
			if p.Shards == n {
				cell.PredictedQPS = p.Throughput
				cell.PredictedSpeedup = p.Speedup
				cell.PredictedLatNS = int64(p.MeanLatency)
			}
		}
		log.Printf("scaleout: records=%d shards=%d: %.2f q/s (speedup %.2fx, predicted %.2fx), "+
			"straggler gap %v, bit-identical",
			records, n, cell.QueriesPerSec, cell.Speedup, cell.PredictedSpeedup,
			time.Duration(cell.MeanStragglerNS).Round(time.Millisecond))
		cells = append(cells, *cell)
	}
	return cells, nil
}

func scaleoutMarkdown(j *job, p scaleoutConfig, cells []scaleCell, chaosRep *scaleChaos, best float64) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Scale-out serving: sharded scatter-gather vs single node\n\n")
	fmt.Fprintf(&sb, "Measured by %s: real serve processes "+
		"(one per shard, `-workers 1 -pace-scale %g` so each shard serves like one simulated "+
		"scoring device), fronted by the router, backend %s, %d closed-loop queries per cell. "+
		"Every repetition's merged predictions are verified bit-identical against an "+
		"in-process single-node oracle before its timing counts.\n\n",
		j.ran(), paceScale, tierBackend, p.Queries)
	tbl := harness.NewTable(&sb, []harness.Col{
		{"records:", "%d"}, {"shards:", "%d"}, {"queries/s:", "%.2f"}, {"rows/s:", "%.0f"},
		{"speedup:", "%.2fx"}, {"predicted speedup:", "%.2fx"}, {"mean latency:", "%v"},
		{"straggler gap:", "%v"}, {":bit-identical", "%v"},
	})
	for _, c := range cells {
		tbl.Row(c.Records, c.Shards, c.QueriesPerSec, c.RowsPerSec, c.Speedup, c.PredictedSpeedup,
			time.Duration(c.MeanLatencyNS).Round(time.Millisecond),
			time.Duration(c.MeanStragglerNS).Round(time.Millisecond), c.BitIdentical)
	}
	fmt.Fprintf(&sb, "\nBest measured speedup at the widest scatter: **%.2fx**.\n\n", best)
	sb.WriteString("The predicted column is the `sched` scatter simulator run on the same " +
		"workload (calibrated per-partition service times plus a fixed per-sub-query router " +
		"overhead): the measured-vs-predicted gap is the real tier's unamortized costs — " +
		"HTTP, JSON serialization and the gather barrier waiting on the slowest shard. " +
		"Small record counts stay overhead-bound (the paper's unamortized-invocation regime " +
		"at tier scale): the fixed per-sub-query invocation cost is paid once per shard per " +
		"query, so widening the scatter cannot help until per-partition compute dominates.\n")
	sb.WriteString("\n## Chaos: SIGKILL one shard mid-run\n\n")
	fmt.Fprintf(&sb, "With %d shards serving, shard %d was SIGKILLed mid-run: %d queries "+
		"succeeded (%d after the kill, via %d reroutes), %d failed, and **%d** returned "+
		"wrong or silently partial predictions — the degradation contract is reroute or "+
		"fail loudly, never fabricate.\n",
		chaosRep.Shards, chaosRep.KilledShard, chaosRep.QueriesOK, chaosRep.OKAfterKill,
		chaosRep.Reroutes, chaosRep.QueriesFailed, chaosRep.WrongPredictions)
	fmt.Fprintf(&sb, "\nVerdict: %s.\n", chaosRep.Verdict)
	return &sb
}
