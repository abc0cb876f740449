package router

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// Config tunes a Router.
type Config struct {
	// Backends are the shard replicas, one per partition index.
	Backends []Backend
	// Obs receives router metrics and per-query traces (nil disables).
	Obs *obs.Observer
	// WarmModels are fanned out to every shard's model cache at
	// construction (replica-aware warm-on-register), within warmTimeout.
	WarmModels []string
	// Health tunes the shard health state machine (nil takes defaults).
	// The state machine always runs on passive per-request signals;
	// active /healthz probing engages only when Health.ProbeInterval > 0.
	Health *HealthConfig
	// Admission enables router admission control (nil disables).
	Admission *AdmissionConfig
}

// Router scatters scoring queries across shard replicas and gathers the
// results. Safe for concurrent use.
type Router struct {
	cfg     Config
	disp    *dispatcher
	metrics *obs.RouterMetrics
	tracer  *obs.Tracer
	health  *HealthManager
	adm     *admission
	// reroutes counts partitions routed away from each preferred shard
	// (the /healthz per-shard ledger).
	reroutes []atomic.Uint64
	// nextHome rotates the home shard of queries narrower than the tier.
	nextHome atomic.Uint64
}

// warmTimeout bounds the construction-time warm fan-out.
const warmTimeout = 10 * time.Second

// New builds a router over cfg.Backends and, when cfg.WarmModels is set,
// warms every shard's model cache before returning (warm failures are
// reported in the error but do not fail construction — a cold shard is
// slower, not wrong).
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no shard backends")
	}
	n := len(cfg.Backends)
	r := &Router{cfg: cfg, reroutes: make([]atomic.Uint64, n)}
	if cfg.Obs != nil {
		r.metrics = obs.NewRouterMetrics(cfg.Obs.Metrics())
		r.tracer = cfg.Obs.Tracer
		for i := range cfg.Backends {
			r.metrics.SetShardState(i, int(ShardHealthy))
		}
	}

	// Health state machine: always on for passive signals; the active
	// probe loop runs only when a probe interval is configured.
	hcfg := HealthConfig{}
	if cfg.Health != nil {
		hcfg = *cfg.Health
	}
	r.health = NewHealthManager(n, hcfg,
		func(ctx context.Context, i int) error { return cfg.Backends[i].Healthz(ctx) },
		r.warmShard,
		func(i int, s ShardState) { r.metrics.SetShardState(i, int(s)) },
	)

	r.adm = newAdmission(cfg.Admission, n, r.metrics)
	r.disp = &dispatcher{
		shards:  n,
		health:  r.health,
		metrics: r.metrics,
	}

	if len(cfg.WarmModels) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), warmTimeout)
		defer cancel()
		for _, model := range cfg.WarmModels {
			r.Warm(ctx, model)
		}
	}
	r.health.Start()
	return r, nil
}

// Close stops the health prober (and any in-flight rejoin warms). The
// router must not serve queries after Close.
func (r *Router) Close() { r.health.Close() }

// warmShard re-warms one shard's model cache (the warm-first half of a
// quarantined shard's rejoin).
func (r *Router) warmShard(ctx context.Context, i int) {
	for _, model := range r.cfg.WarmModels {
		status, err := r.cfg.Backends[i].Warm(ctx, model)
		if err != nil {
			r.metrics.NoteWarm("error")
		} else {
			r.metrics.NoteWarm(status)
		}
	}
}

// Health exposes the shard health state machine (for /healthz and the
// chaos harness).
func (r *Router) Health() *HealthManager { return r.health }

// RerouteCount returns how many partitions have been routed away from
// shard i (their preferred shard).
func (r *Router) RerouteCount(i int) uint64 { return r.reroutes[i].Load() }

// AdmissionStats snapshots the admission ledger (nil when admission
// control is disabled).
func (r *Router) AdmissionStats() *AdmissionStats { return r.adm.Stats() }

// Shards returns the number of shard replicas, the widest a query scatters.
func (r *Router) Shards() int { return len(r.cfg.Backends) }

// minPartitionRows is the fewest rows worth a sub-query of their own. A
// sub-query's fixed cost (a /score round trip, a request decode, a frame
// encode, the stripe mask, its share of the gather barrier) is about 0.3 ms
// of CPU, and the CPU kernel scores about one row per microsecond on a
// 64-tree model, so a partition carrying fewer rows costs the tier more than
// it saves. A constant, not a setting: it stands for a measured crossover
// (ROADMAP 9(b)), and nothing that runs this tier wants a second value.
const minPartitionRows = 1024

// plan is the one scatter decision a query gets: its partitions and the home
// shard, partition k preferring shard (home+k) mod shards. The width is what
// the rows the statement can touch are worth, ceil(rowBound /
// minPartitionRows) clamped to [1, shards]; rowBound is the statement's
// @limit, the only bound the router has without asking a shard, and 0
// (unbounded) keeps the full width with partition k on shard k. Width 1 is
// always the unpartitioned sub-query (the zero Partition: the shard skips the
// stripe mask). A tenant is width 1 homed on its own shard; any other
// query narrower than the tier takes the next home in rotation, so narrow
// queries load the shards evenly.
func (r *Router) plan(rowBound int, tenant string) (parts []pipeline.Partition, home int) {
	n := r.Shards()
	width := n
	if rowBound > 0 {
		width = min(n, (rowBound-1)/minPartitionRows+1)
	}
	switch {
	case tenant != "":
		width, home = 1, pipeline.TenantShard(tenant, n)
	case width < n:
		home = int((r.nextHome.Add(1) - 1) % uint64(n))
	}
	parts = make([]pipeline.Partition, width)
	if width > 1 {
		for k := range parts {
			parts[k] = pipeline.Partition{Index: k, Count: width}
		}
	}
	return parts, home
}

// WarmStatus is one shard's outcome of a warm fan-out.
type WarmStatus struct {
	Shard  string `json:"shard"`
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Warm fans a model-cache warm to every shard concurrently so the first
// scoring query finds the compiled model resident everywhere (a cold cache
// on ONE replica would stall the whole gather behind that straggler).
func (r *Router) Warm(ctx context.Context, model string) []WarmStatus {
	out := make([]WarmStatus, r.Shards())
	done := make(chan int, r.Shards())
	for i, b := range r.cfg.Backends {
		go func(i int, b Backend) {
			out[i].Shard = b.ID()
			status, err := b.Warm(ctx, model)
			if err != nil {
				out[i].Error = err.Error()
				r.metrics.NoteWarm("error")
			} else {
				out[i].Status = status
				r.metrics.NoteWarm(status)
			}
			done <- i
		}(i, b)
	}
	for range r.cfg.Backends {
		<-done
	}
	return out
}

// QueryOptions modifies one routed query.
type QueryOptions struct {
	// Tenant, when non-empty, engages tenant affinity: the whole query
	// (width 1) is homed on the tenant's shard — FNV over the tenant key —
	// keeping that tenant's model cache on one replica. Failures still
	// reroute to other shards.
	Tenant string
}

// Query parses sql ONCE, scatters it as the sub-queries its plan names, and
// merges the shard results into a single result bit-identical to a
// single-node run of the same statement.
// Only the two scoring forms are accepted: the router is a scoring tier, not
// a general SQL proxy. A statement it refuses is the caller's error
// (NoReroute), like one every shard would refuse.
func (r *Router) Query(ctx context.Context, sql string, opts QueryOptions) (*Merged, error) {
	st, err := db.Parse(sql)
	if err != nil {
		return nil, NoReroute(err)
	}
	req, err := pipeline.ScoreRequestOf(nil, st)
	if err != nil {
		return nil, NoReroute(err)
	}
	if req == nil {
		return nil, NoReroute(fmt.Errorf("router: only scoring statements are routable"))
	}
	return r.Score(ctx, req, opts)
}

// Score scatters a validated scoring request. req.Partition must be zero:
// partitioning is the router's job.
func (r *Router) Score(ctx context.Context, req *pipeline.ScoreRequest, opts QueryOptions) (*Merged, error) {
	if req.Partition.Active() {
		return nil, NoReroute(fmt.Errorf("router: request already partitioned (%s); the router assigns partitions",
			req.Partition))
	}
	// Admission control happens HERE, before any shard sees the query.
	if err := r.adm.Admit(); err != nil {
		return nil, err
	}
	defer r.adm.Release()

	parts, home := r.plan(req.Limit, opts.Tenant)

	tr := r.tracer.Start("router " + req.Model)
	defer tr.Finish()
	tr.SetAttr("model", req.Model)
	tr.SetAttr("shards", fmt.Sprint(r.Shards()))
	tr.SetAttr("scatter_width", fmt.Sprint(len(parts)))
	tr.SetAttr("row_bound", fmt.Sprint(req.Limit))
	tr.SetAttr("home", fmt.Sprint(home))
	if opts.Tenant != "" {
		tr.SetAttr("tenant", opts.Tenant)
	}

	base := WireRequest(req)
	dres := r.disp.scatter(ctx, parts, home, func(ctx context.Context, shard int, part pipeline.Partition) (*Result, error) {
		lane := fmt.Sprintf("shard %d", shard)
		name := "sub-query"
		if part.Active() {
			name += " " + part.String()
		}
		end := tr.StartSpanOn(lane, name)
		defer end()
		wreq := base
		wreq.Partition = part.String()
		ctx = context.WithValue(ctx, wireTapKey{}, wireTap{trace: tr, lane: lane, metrics: r.metrics})
		return r.cfg.Backends[shard].Score(ctx, wreq)
	})

	// Telemetry: reroutes and the straggler gap over the partitions that
	// have a result.
	var minLat, maxLat time.Duration
	reroutes, answered := 0, 0
	for _, d := range dres {
		reroutes += d.Reroutes
		if d.Reroutes > 0 {
			r.reroutes[d.Preferred].Add(uint64(d.Reroutes))
		}
		if d.Err == nil {
			if answered == 0 || d.Latency < minLat {
				minLat = d.Latency
			}
			if d.Latency > maxLat {
				maxLat = d.Latency
			}
			answered++
		}
	}
	gap := maxLat - minLat
	tr.SetAttr("straggler_gap", gap.String())

	// A query-level error (unknown model, malformed filter) fails
	// identically on every replica: surface it as the query's own error,
	// not as a PartialError.
	for _, d := range dres {
		if IsNoReroute(d.Err) {
			r.metrics.ObserveQuery("error", len(parts), gap)
			tr.SetAttr("error", d.Err.Error())
			return nil, d.Err
		}
	}

	// Any partition without an answer fails the query: the tier answers
	// bit-identically or not at all.
	if pe := partial(dres); pe != nil {
		r.metrics.ObserveQuery("error", len(parts), gap)
		tr.SetAttr("error", pe.Error())
		// Unwrap a single-partition scatter's sole failure so callers see
		// the shard's own error classification.
		if len(parts) == 1 {
			return nil, dres[0].Err
		}
		return nil, pe
	}

	byPart := make([]*Result, len(parts))
	latencies := make([]time.Duration, len(parts))
	for i, d := range dres {
		byPart[i] = d.Value
		latencies[i] = d.Latency
	}
	endMerge := tr.StartSpan("merge")
	merged, err := Merge(req.Agg, byPart)
	endMerge()
	if err != nil {
		r.metrics.ObserveQuery("error", len(parts), gap)
		tr.SetAttr("error", err.Error())
		return nil, err
	}
	merged.StragglerGap = gap
	merged.ShardLatency = latencies
	merged.Reroutes = reroutes
	merged.TraceID = tr.ID()
	r.metrics.ObserveQuery("ok", len(parts), gap)
	tr.SetAttr("outcome", "ok")
	return merged, nil
}
