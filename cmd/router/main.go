// Command router is the scatter-gather front of the scale-out serving tier.
// It stripes each scoring query's rows across up to N serve shards (whole
// 64-row words, round-robin; a statement whose @limit is too small to repay a
// scatter, and every ?tenant= query, goes to one shard whole),
// scatters one sub-query per partition to the shards the health state
// machine lets take traffic, and merges the shard results into a single
// answer bit-identical to a single-node run. A dead shard's partition
// reroutes to a healthy replica; when every route is exhausted the query
// fails with a typed partial error — never a silently wrong or partial
// answer. Shards answer each sub-query with one binary frame.
//
// Usage:
//
//	router -shards http://localhost:8081,http://localhost:8082 \
//	    [-addr :8090] [-warm iris_rf] \
//	    [-max-inflight 64] [-classes interactive=25ms,batch=500ms]
//
// The shard health state machine (healthy -> degraded -> quarantined ->
// rejoining) is the router's one notion of shard health. It runs on passive
// per-request signals and on an active /healthz probe every 2 s,
// so a quarantined shard can rejoin without traffic. Either -max-inflight or
// -classes turns on admission control (the router-wide bound is 4 x shards
// when -classes turns it on): capacity, priority-class, and deadline-aware
// shedding answer 503 with Retry-After instead of queueing without bound.
// A busy shard refuses a sub-query at its own executor queue, and the
// router reroutes it.
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

// connsPerShard is the idle HTTP connections kept per shard, sized to the
// client concurrency the tier is driven at; probeInterval paces the active
// /healthz probes (each bounded by HealthConfig's default 1 s timeout).
const (
	connsPerShard = 32
	probeInterval = 2 * time.Second
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "",
		"comma-separated shard base URLs, e.g. http://localhost:8081,http://localhost:8082")
	warm := flag.String("warm", "",
		"comma-separated models to warm on every shard at startup (replica-aware cache warming)")
	maxInFlight := flag.Int("max-inflight", 0,
		"router-wide concurrent query bound; enables admission control"+
			" (0 = off, or 4 x shards when -classes turns it on)")
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
		Transport: router.SharedTransport(connsPerShard),
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
		Backends:   backends,
		Obs:        obs.NewObserver(),
		WarmModels: splitList(*warm),
		Health:     &router.HealthConfig{ProbeInterval: probeInterval},
	}
	if *maxInFlight > 0 || *classes != "" {
		objs, err := obs.ParseSLOSpec(*classes)
		if err != nil {
			log.Fatalf("router: -classes: %v", err)
		}
		cfg.Admission = &router.AdmissionConfig{
			MaxInFlight: *maxInFlight,
			Classes:     objs,
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
