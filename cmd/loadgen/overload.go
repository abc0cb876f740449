// Overload and failure-survival bench for the sharded tier. Where
// -bench-scaleout asks "how fast is the scatter when everything works",
// this harness asks the robustness question: what happens PAST saturation,
// with sick shards, under an open-loop arrival process that does not
// politely slow down when the tier does.
//
// The harness boots N serve shards (one intentionally paced slower — the
// straggler), fronts them with a router running the full overload stack
// (health state machine with active probing, tail-latency hedging,
// admission control with priority classes), then:
//
//  1. calibrates saturation throughput closed-loop;
//  2. sweeps offered load past saturation with Poisson and bursty
//     open-loop arrivals, recording goodput, shed, and latency curves;
//  3. runs a chaos cell: SIGKILL one shard and SIGSTOP/SIGCONT-flap
//     another while over-saturated traffic flows;
//  4. waits for the flapped shard to rejoin through quarantine ->
//     probe -> warm -> trickle, then drains at low load.
//
// Every accepted answer is verified against a fault-free in-process
// oracle. The contract: sheds and failures are allowed (that is the point
// of admission control), wrong or silently-partial answers are not — one
// wrong prediction fails the whole bench.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"accelscore/internal/harness"
	"accelscore/internal/obs"
	"accelscore/internal/router"
)

// overloadClasses is the admission priority spelling used by the harness:
// interactive sheds last, batch first.
const overloadClasses = "interactive=250ms,batch=2s"

// overloadCell is one open-loop sweep point.
type overloadCell struct {
	Arrival    string  `json:"arrival"`
	LoadMult   float64 `json:"load_multiple"`
	OfferedQPS float64 `json:"offered_qps"`
	DurationNS int64   `json:"duration_ns"`
	Offered    int     `json:"offered"`
	Accepted   int     `json:"accepted"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	Wrong      int     `json:"wrong"`
	GoodputQPS float64 `json:"goodput_qps"`
	P50NS      int64   `json:"p50_ns"`
	P95NS      int64   `json:"p95_ns"`
	P99NS      int64   `json:"p99_ns"`
	Hedges     int     `json:"hedges"`
	HedgeWins  int     `json:"hedge_wins"`
	Reroutes   int     `json:"reroutes"`
}

// overloadChaosReport is the kill+flap cell's verdict.
type overloadChaosReport struct {
	SlowShard    int      `json:"slow_shard"`
	KilledShard  int      `json:"killed_shard"`
	FlappedShard int      `json:"flapped_shard"`
	Offered      int      `json:"offered"`
	Accepted     int      `json:"accepted"`
	Shed         int      `json:"shed"`
	Failed       int      `json:"failed"`
	Wrong        int      `json:"wrong"`
	OKAfterKill  int      `json:"ok_after_kill"`
	Hedges       int      `json:"hedges"`
	HedgeWins    int      `json:"hedge_wins"`
	Reroutes     int      `json:"reroutes"`
	FlapRejoined bool     `json:"flap_rejoined"`
	DrainQueries int      `json:"drain_queries"`
	DrainErrors  int      `json:"drain_errors"`
	DrainWrong   int      `json:"drain_wrong"`
	FinalStates  []string `json:"final_shard_states"`
	Transitions  []int    `json:"shard_transitions"`
	Verdict      string   `json:"verdict"`
}

// overloadRouter builds the harness router: health probing, hedging, and
// admission all on.
func overloadRouter(backends []router.Backend, o *options) (*router.Router, error) {
	classes, err := obs.ParseSLOSpec(overloadClasses)
	if err != nil {
		return nil, err
	}
	maxInFlight := o.overloadInFlight
	if maxInFlight <= 0 {
		maxInFlight = 2 * o.overloadShards
	}
	return router.New(router.Config{
		Backends:   backends,
		WarmModels: []string{"iris_rf"},
		Health: &router.HealthConfig{
			ProbeInterval:       150 * time.Millisecond,
			ProbeTimeout:        500 * time.Millisecond,
			FailThreshold:       2,
			QuarantineThreshold: 2,
			PassThreshold:       2,
			RejoinProbes:        2,
			RejoinTrickle:       2,
			QuarantineBackoff:   300 * time.Millisecond,
			MaxBackoff:          2 * time.Second,
		},
		Hedge: &router.HedgeConfig{},
		Admission: &router.AdmissionConfig{
			MaxInFlight: maxInFlight,
			Classes:     classes,
		},
	})
}

// arrivalTimes generates the cell's arrival schedule: "poisson" draws
// exponential inter-arrivals at rate qps; "burst" releases clumps of 8 at
// the same average rate (the pathological arrival pattern admission control
// exists for).
func arrivalTimes(kind string, qps float64, window time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	switch kind {
	case "burst":
		const clump = 8
		gap := time.Duration(float64(clump) / qps * float64(time.Second))
		for t := time.Duration(0); t < window; t += gap {
			for i := 0; i < clump; i++ {
				out = append(out, t)
			}
		}
	default: // poisson
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
			if t >= window {
				break
			}
			out = append(out, t)
		}
	}
	return out
}

// alternateClasses is the open-loop arrivals' priority mix.
func alternateClasses(i int) string { return [2]string{"interactive", "batch"}[i%2] }

func interactive(int) string { return "interactive" }

// bootOverloadTier boots the shards (the last one paced slower — the static
// straggler the hedge and straggler-gap machinery must absorb) and the
// router over them; the caller closes the router and kills the fleet.
func bootOverloadTier(bin string, o *options) (*harness.Fleet, *router.Router, error) {
	fleet, err := harness.StartShards(bin, o.overloadShards, o.overloadRecords, func(k int) float64 {
		if k == o.overloadShards-1 {
			return o.paceScale * o.overloadSlowFactor
		}
		return o.paceScale
	})
	if err != nil {
		return nil, nil, err
	}
	r, err := overloadRouter(fleet.Backends, o)
	if err != nil {
		fleet.Kill()
		return nil, nil, err
	}
	return fleet, r, nil
}

// calibrate measures closed-loop saturation throughput through the full
// router stack (also seeding the hedge trigger's latency rings and the
// admission controller's EWMA latency predictor). Clients stay below the
// tier width so the calibration itself doesn't stack a deep queue on the
// straggler shard and poison the latency predictor. Warm-up failures are
// tolerated; a wrong answer is not.
func calibrate(r *router.Router, clients int, oracle *harness.DemoOracle) (float64, error) {
	clients = min(clients, 2)
	queries := clients * 8
	run := harness.Closed(context.Background(), clients, queries, 0,
		oracle.QueryOp(r, interactive, new(harness.Routing)))
	if wrong := run.Tally()[harness.Wrong]; wrong > 0 {
		return 0, fmt.Errorf("bench-overload: %d wrong answers during fault-free calibration", wrong)
	}
	return float64(queries) / run.Wall.Seconds(), nil
}

// runOverloadCell fires one open-loop schedule and folds the outcomes into
// a report row. Wrong answers are counted AND returned as an error: the
// bench has nothing to report once the tier fabricates data.
func runOverloadCell(cell overloadCell, r *router.Router, schedule []time.Duration,
	deadline time.Duration, oracle *harness.DemoOracle) (overloadCell, error) {
	var routing harness.Routing
	run := harness.Open(context.Background(), schedule, deadline, oracle.QueryOp(r, alternateClasses, &routing))
	t, sum := run.Tally(), harness.Summarize(run.OKLatencies())
	cell.Offered, cell.Accepted, cell.Shed, cell.Wrong = len(schedule), t[harness.OK], t[harness.Shed], t[harness.Wrong]
	cell.Failed = cell.Offered - cell.Accepted - cell.Shed - cell.Wrong
	cell.Hedges, cell.HedgeWins, cell.Reroutes = routing.Hedges, routing.HedgeWins, routing.Reroutes
	cell.P50NS, cell.P95NS, cell.P99NS = int64(sum.P50), int64(sum.P95), int64(sum.P99)
	cell.GoodputQPS = float64(cell.Accepted) / (float64(cell.DurationNS) / float64(time.Second))
	if cell.Wrong > 0 {
		return cell, fmt.Errorf("bench-overload: %d accepted answers were WRONG (first: %v)",
			cell.Wrong, routing.FirstWrong)
	}
	return cell, nil
}

// runOverloadChaos is the survival cell: over-saturated Poisson traffic
// while one shard is SIGKILLed and another SIGSTOP/SIGCONT-flapped, then a
// rejoin wait and a low-load drain.
func runOverloadChaos(r *router.Router, procs []*harness.Proc, o *options, satQPS float64,
	oracle *harness.DemoOracle, rng *rand.Rand) (*overloadChaosReport, error) {
	n := o.overloadShards
	rep := &overloadChaosReport{
		SlowShard:    n - 1, // boot order: last shard is the straggler
		KilledShard:  0,
		FlappedShard: 1,
	}
	window := max(2*o.overloadCell, 3*time.Second)
	schedule := arrivalTimes("poisson", 1.5*satQPS, window, rng)

	var routing harness.Routing
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		// t=25%: SIGKILL the kill victim.
		time.Sleep(window / 4)
		log.Printf("bench-overload: chaos SIGKILL shard %d", rep.KilledShard)
		routing.Mark()
		procs[rep.KilledShard].Kill()
		// t=40%..55%: freeze the flap victim (requests to it stall, its
		// probes time out, it quarantines), then thaw it for the rejoin.
		time.Sleep(window * 15 / 100)
		log.Printf("bench-overload: chaos SIGSTOP shard %d", rep.FlappedShard)
		procs[rep.FlappedShard].Stop()
		time.Sleep(window * 15 / 100)
		log.Printf("bench-overload: chaos SIGCONT shard %d", rep.FlappedShard)
		procs[rep.FlappedShard].Cont()
	}()
	t := harness.Open(context.Background(), schedule, o.overloadDeadline, oracle.QueryOp(r, alternateClasses, &routing)).Tally()
	<-faultsDone
	rep.Offered, rep.Accepted, rep.Shed, rep.Wrong = len(schedule), t[harness.OK], t[harness.Shed], t[harness.Wrong]
	rep.Failed = rep.Offered - rep.Accepted - rep.Shed - rep.Wrong
	rep.Hedges, rep.HedgeWins, rep.Reroutes = routing.Hedges, routing.HedgeWins, routing.Reroutes
	rep.OKAfterKill = routing.OKAfterMark

	// Rejoin wait: the flapped shard must come back through quarantine ->
	// probes -> warm -> trickle on its own. The trickle needs real traffic,
	// so keep a slow drip flowing while we wait.
	drip := oracle.QueryOp(r, interactive, &routing)
	rejoinCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep.Wrong += harness.Closed(rejoinCtx, 1, 0, o.overloadDeadline, func(ctx context.Context, i int) error {
		if r.Health().State(rep.FlappedShard) == router.ShardHealthy {
			cancel()
			return nil
		}
		defer time.Sleep(50 * time.Millisecond)
		return drip(ctx, i)
	}).Tally()[harness.Wrong]
	rep.FlapRejoined = r.Health().State(rep.FlappedShard) == router.ShardHealthy

	// Drain: sequential low load after rejoin. Zero errors, zero wrong.
	rep.DrainQueries = 16
	drain := harness.Closed(context.Background(), 1, rep.DrainQueries, 30*time.Second, drip).Tally()
	rep.DrainWrong = drain[harness.Wrong]
	rep.DrainErrors = rep.DrainQueries - drain[harness.OK] - rep.DrainWrong

	rep.FinalStates = make([]string, n)
	rep.Transitions = make([]int, n)
	for i := 0; i < n; i++ {
		rep.FinalStates[i] = r.Health().State(i).String()
		rep.Transitions[i] = r.Health().Transitions(i)
	}

	rep.Verdict = "pass"
	switch {
	case rep.Wrong > 0 || rep.DrainWrong > 0:
		rep.Verdict = "FAIL: wrong predictions"
		return rep, fmt.Errorf("bench-overload chaos: %d wrong accepted answers (first: %v)",
			rep.Wrong+rep.DrainWrong, routing.FirstWrong)
	case rep.OKAfterKill == 0:
		rep.Verdict = "FAIL: goodput hit zero after the kill"
		return rep, fmt.Errorf("bench-overload chaos: no successful query after SIGKILL — " +
			"goodput must degrade, not cliff to zero, while a replica survives")
	case !rep.FlapRejoined:
		rep.Verdict = "FAIL: flapped shard never rejoined"
		return rep, fmt.Errorf("bench-overload chaos: shard %d stuck in state %q after SIGCONT",
			rep.FlappedShard, r.Health().State(rep.FlappedShard))
	case rep.DrainErrors > 0:
		rep.Verdict = "FAIL: post-rejoin errors"
		return rep, fmt.Errorf("bench-overload chaos: %d/%d drain queries failed after rejoin",
			rep.DrainErrors, rep.DrainQueries)
	}
	return rep, nil
}

// runOverloadBench drives the calibration, the open-loop sweep, and the
// chaos cell, writing results/overload_bench.md + BENCH_overload.json.
func runOverloadBench(o *options) error {
	if o.overloadShards < 3 {
		return fmt.Errorf("bench-overload: need >= 3 shards (straggler + kill victim + flap victim), got %d", o.overloadShards)
	}
	bin, cleanup, err := harness.ServeBinary(o.serveBin)
	if err != nil {
		return err
	}
	defer cleanup()

	log.Printf("bench-overload: records=%d building fault-free oracle", o.overloadRecords)
	oracle, err := harness.NewDemoOracle(o.overloadRecords, o.scaleBackend)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))

	satQPS, cells, admStats, err := runOverloadSweep(bin, o, oracle, rng)
	if err != nil {
		return err
	}
	var chaosRep *overloadChaosReport
	if o.overloadChaos {
		if chaosRep, err = runOverloadChaosCell(bin, o, satQPS, oracle, rng); err != nil {
			return err
		}
	}

	return harness.WriteReport(o.jsonOut, overloadDoc(o, satQPS, cells, admStats, chaosRep),
		"overload_bench.md", overloadMarkdown(o, satQPS, cells, chaosRep))
}

// overloadDoc assembles the overload JSON artifact on the common envelope.
func overloadDoc(o *options, satQPS float64, cells []overloadCell,
	admStats []router.AdmissionStats, chaosRep *overloadChaosReport) map[string]any {
	doc := harness.Envelope("overload")
	doc["backend"] = o.scaleBackend
	doc["shards"] = o.overloadShards
	doc["records"] = o.overloadRecords
	doc["pace_scale"] = o.paceScale
	doc["slow_factor"] = o.overloadSlowFactor
	doc["deadline_ns"] = int64(o.overloadDeadline)
	doc["classes"] = overloadClasses
	doc["saturation_qps"] = satQPS
	doc["cells"] = cells
	doc["admission"] = admStats
	if chaosRep != nil {
		doc["chaos"] = chaosRep
	}
	return doc
}

// runOverloadSweep is the sweep tier — all shards nominal except the static
// straggler: calibrate saturation, then offer each load multiple with each
// arrival process.
func runOverloadSweep(bin string, o *options, oracle *harness.DemoOracle,
	rng *rand.Rand) (satQPS float64, cells []overloadCell, admStats []router.AdmissionStats, err error) {
	fleet, r, err := bootOverloadTier(bin, o)
	if err != nil {
		return 0, nil, nil, err
	}
	defer fleet.Kill()
	defer r.Close()
	if satQPS, err = calibrate(r, o.overloadShards, oracle); err != nil {
		return 0, nil, nil, err
	}
	log.Printf("bench-overload: calibrated saturation ~%.1f q/s", satQPS)

	for _, arrival := range []string{"poisson", "burst"} {
		for _, mult := range floatList(o.overloadMults) {
			cell := overloadCell{
				Arrival:    arrival,
				LoadMult:   mult,
				OfferedQPS: mult * satQPS,
				DurationNS: int64(o.overloadCell),
			}
			schedule := arrivalTimes(arrival, cell.OfferedQPS, o.overloadCell, rng)
			if cell, err = runOverloadCell(cell, r, schedule, o.overloadDeadline, oracle); err != nil {
				return 0, nil, nil, err
			}
			log.Printf("bench-overload: %s x%.2g: offered %d, goodput %.1f q/s, shed %d, failed %d, hedges %d (%d won)",
				arrival, mult, cell.Offered, cell.GoodputQPS, cell.Shed, cell.Failed, cell.Hedges, cell.HedgeWins)
			cells = append(cells, cell)
		}
	}
	// The admission ledger's books must balance: offered == accepted + shed
	// per class.
	admStats = r.AdmissionStats()
	for _, s := range admStats {
		if s.Offered != s.Accepted+s.Shed {
			return 0, nil, nil, fmt.Errorf("bench-overload: admission ledger out of balance for class %q: %+v", s.Class, s)
		}
	}
	return satQPS, cells, admStats, nil
}

// runOverloadChaosCell boots a fresh tier with the same straggler and runs
// the kill + flap cell under load.
func runOverloadChaosCell(bin string, o *options, satQPS float64,
	oracle *harness.DemoOracle, rng *rand.Rand) (*overloadChaosReport, error) {
	fleet, r, err := bootOverloadTier(bin, o)
	if err != nil {
		return nil, err
	}
	defer fleet.Kill()
	defer r.Close()
	// Seed the hedge trigger and the latency predictor before faults.
	if _, err := calibrate(r, o.overloadShards, oracle); err != nil {
		return nil, err
	}
	rep, err := runOverloadChaos(r, fleet.Procs, o, satQPS, oracle, rng)
	if rep != nil {
		log.Printf("bench-overload: chaos: offered %d, ok %d (%d after kill), shed %d, failed %d, "+
			"wrong %d, hedges %d, reroutes %d, rejoined=%v, drain %d/%d ok",
			rep.Offered, rep.Accepted, rep.OKAfterKill, rep.Shed, rep.Failed, rep.Wrong, rep.Hedges,
			rep.Reroutes, rep.FlapRejoined, rep.DrainQueries-rep.DrainErrors, rep.DrainQueries)
	}
	return rep, err
}

func overloadMarkdown(o *options, satQPS float64,
	cells []overloadCell, chaosRep *overloadChaosReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Overload survival: the sharded tier past saturation\n\n")
	fmt.Fprintf(&sb, "Measured by `go run ./cmd/loadgen -bench-overload`: %d serve shards "+
		"(the last paced %gx slower — a static straggler), fronted by a router running "+
		"the full overload stack: shard health state machine with active probing, "+
		"tail-latency hedging (adaptive per-shard P95 trigger, budget-capped), and "+
		"admission control (`%s`; capacity, priority, and deadline shedding). Open-loop "+
		"arrivals carry a %v deadline; calibrated saturation is %.1f q/s. Every accepted "+
		"answer is verified against a fault-free single-node oracle.\n\n",
		o.overloadShards, o.overloadSlowFactor, overloadClasses, o.overloadDeadline, satQPS)
	tbl := harness.NewTable(&sb, []harness.Col{
		{":arrival", "%s"}, {"load:", "%.2gx"}, {"offered:", "%d"}, {"goodput q/s:", "%.1f"},
		{"shed:", "%d"}, {"failed:", "%d"}, {"wrong:", "%d"}, {"p50:", "%v"}, {"p95:", "%v"},
		{"p99:", "%v"}, {"hedges (won):", "%s"}, {"reroutes:", "%d"},
	})
	for _, c := range cells {
		tbl.Row(c.Arrival, c.LoadMult, c.Offered, c.GoodputQPS, c.Shed, c.Failed, c.Wrong,
			time.Duration(c.P50NS).Round(time.Millisecond),
			time.Duration(c.P95NS).Round(time.Millisecond),
			time.Duration(c.P99NS).Round(time.Millisecond),
			fmt.Sprintf("%d (%d)", c.Hedges, c.HedgeWins), c.Reroutes)
	}
	sb.WriteString("\nPast saturation an open-loop arrival process keeps offering work the tier " +
		"cannot absorb; without admission control the queue (and every latency percentile) " +
		"grows without bound. The shed column is the valve working: refused queries get an " +
		"immediate 503 + Retry-After instead of a slow timeout, and goodput holds near " +
		"saturation instead of collapsing. Batch sheds before interactive (priority classes " +
		"reuse the SLO objective spelling: the tightest objective sheds last).\n")
	if chaosRep != nil {
		sb.WriteString("\n## Chaos: SIGKILL + SIGSTOP/SIGCONT flap under over-saturated load\n\n")
		fmt.Fprintf(&sb, "With 1.5x saturation Poisson traffic flowing, shard %d was SIGKILLed and "+
			"shard %d frozen (SIGSTOP) then thawed (SIGCONT). Of %d offered: %d accepted "+
			"(**%d after the kill** — goodput degraded, it did not cliff to zero), %d shed, "+
			"%d failed loudly, and **%d wrong** (the only number that is never allowed to be "+
			"non-zero). Hedges fired %d times (%d won — the stalled shard's sub-queries were "+
			"beaten by a healthy replica's); %d partitions rerouted.\n\n",
			chaosRep.KilledShard, chaosRep.FlappedShard, chaosRep.Offered, chaosRep.Accepted,
			chaosRep.OKAfterKill, chaosRep.Shed, chaosRep.Failed, chaosRep.Wrong,
			chaosRep.Hedges, chaosRep.HedgeWins, chaosRep.Reroutes)
		fmt.Fprintf(&sb, "The flapped shard rejoined automatically (quarantine -> probe passes "+
			"after backoff -> model re-warm -> trickle of real traffic): rejoined=%v, final "+
			"states %v, %v transitions. Post-rejoin drain: %d/%d queries ok, %d wrong.\n\n",
			chaosRep.FlapRejoined, chaosRep.FinalStates, chaosRep.Transitions,
			chaosRep.DrainQueries-chaosRep.DrainErrors, chaosRep.DrainQueries, chaosRep.DrainWrong)
		fmt.Fprintf(&sb, "Verdict: %s.\n", chaosRep.Verdict)
	}
	return &sb
}
