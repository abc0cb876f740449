// Command router is the scatter-gather front of the scale-out serving tier.
// It hash-partitions each scoring query's rows across up to N serve shards
// (FNV over the stable row ordinal; a statement whose @limit is too small to
// repay a scatter, and every ?tenant= query, goes to one shard whole),
// scatters one sub-query per partition to the shards the health state
// machine lets take traffic, and merges the shard results into a single
// answer bit-identical to a single-node run. A dead shard's partition
// reroutes to a healthy replica; when every route is exhausted the query
// either fails with a typed partial error or (with -partial) degrades to an
// explicit partial result — never silently wrong answers.
//
// Usage:
//
//	router -shards http://localhost:8081,http://localhost:8082 \
//	    [-addr :8090] [-warm iris_rf] [-partial] \
//	    [-conns-per-shard 32] [-probe-interval 2s] [-slow-after 0] \
//	    [-hedge] [-hedge-fraction 0.05] \
//	    [-max-inflight 64] [-shard-inflight 16] [-classes interactive=25ms,batch=500ms]
//
// The shard health state machine (healthy -> degraded -> quarantined ->
// rejoining) is the router's one notion of shard health. It always runs on
// passive per-request signals; -probe-interval adds active /healthz probing
// so a quarantined shard can rejoin without traffic. -hedge enables
// tail-latency hedging (adaptive per-shard P95 trigger, bounded budget,
// bit-identical result verification). -max-inflight turns on admission
// control: capacity, priority-class, and deadline-aware shedding answer 503
// with Retry-After instead of queueing without bound.
//
// Endpoints: /query (?sql= or POST body, ?tenant=), /warm?model=, /healthz,
// and the ops surface shared with cmd/serve (internal/httpapi): /metrics,
// /debug/queries, /debug/trace/<id>, /debug/pprof/*. Listening, the request
// log, HTTP metrics and shutdown are that package's too; a failure's HTTP
// status comes from the same table (router.StatusOf) on both tiers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"accelscore/internal/httpapi"
	"accelscore/internal/obs"
	"accelscore/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "",
		"comma-separated shard base URLs, e.g. http://localhost:8081,http://localhost:8082")
	warm := flag.String("warm", "",
		"comma-separated models to warm on every shard at startup (replica-aware cache warming)")
	partial := flag.Bool("partial", false,
		"degrade queries with unreachable partitions to explicit partial results instead of failing")
	connsPerShard := flag.Int("conns-per-shard", 32,
		"idle HTTP connections kept per shard (size to the expected client concurrency)")
	warmTimeout := flag.Duration("warm-timeout", 10*time.Second, "startup warm fan-out budget")
	probeInterval := flag.Duration("probe-interval", 2*time.Second,
		"active /healthz probe interval for the shard health state machine (0 disables probing)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe timeout (0 = default 1s)")
	slowAfter := flag.Duration("slow-after", 0,
		"sub-query latency counted as a slow (degrading) pass by the health state machine (0 disables)")
	hedge := flag.Bool("hedge", false, "enable tail-latency request hedging")
	hedgeFraction := flag.Float64("hedge-fraction", 0,
		"hedge budget as a fraction of sub-queries (0 = default 0.05)")
	hedgeBurst := flag.Int("hedge-burst", 0, "hedge token-bucket burst depth (0 = default 4)")
	maxInFlight := flag.Int("max-inflight", 0,
		"router-wide concurrent query bound; enables admission control (0 disables)")
	shardInFlight := flag.Int("shard-inflight", 0,
		"per-shard concurrent sub-query bound (0 disables; needs -max-inflight)")
	shardQueue := flag.Int("shard-queue", 0,
		"per-shard sub-query wait queue beyond -shard-inflight before fast-fail reroute (0 = 2x)")
	classes := flag.String("classes", "",
		"admission priority classes as SLO objectives, e.g. interactive=25ms,batch=500ms"+
			" (tightest objective sheds last)")
	flag.Parse()

	urls := splitList(*shards)
	if len(urls) == 0 {
		log.Fatal("router: -shards is required (comma-separated serve base URLs)")
	}

	// One shared client: the connection pool is reused across shards and
	// queries, so a steady scatter load never thrashes TCP handshakes.
	client := &http.Client{
		Transport: router.SharedTransport(*connsPerShard),
		Timeout:   120 * time.Second,
	}
	backends := make([]router.Backend, len(urls))
	for i, u := range urls {
		shard, err := router.NewHTTPShard(fmt.Sprintf("shard-%d", i), u, client)
		if err != nil {
			log.Fatalf("router: shard %d: %v", i, err)
		}
		backends[i] = shard
	}

	cfg := router.Config{
		Backends:     backends,
		AllowPartial: *partial,
		Obs:          obs.NewObserver(),
		WarmModels:   splitList(*warm),
		WarmTimeout:  *warmTimeout,
		Health: &router.HealthConfig{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			SlowAfter:     *slowAfter,
		},
	}
	if *hedge {
		cfg.Hedge = &router.HedgeConfig{MaxFraction: *hedgeFraction, Burst: *hedgeBurst}
	}
	if *maxInFlight > 0 || *shardInFlight > 0 || *classes != "" {
		objs, err := obs.ParseSLOSpec(*classes)
		if err != nil {
			log.Fatalf("router: -classes: %v", err)
		}
		cfg.Admission = &router.AdmissionConfig{
			MaxInFlight:   *maxInFlight,
			ShardInFlight: *shardInFlight,
			ShardQueue:    *shardQueue,
			Classes:       objs,
		}
	}
	r, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("router: %d shards: %s", len(urls), strings.Join(urls, ", "))

	err = httpapi.Serve(*addr, router.Handler(r), 120*time.Second,
		func(context.Context) error { r.Close(); return nil })
	if err != nil {
		log.Fatal(err)
	}
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
