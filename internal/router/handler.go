package router

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"accelscore/internal/httpapi"
)

// QueryResponse is the /query JSON envelope: the merged scatter result or
// an error.
type QueryResponse struct {
	OK             bool    `json:"ok"`
	Error          string  `json:"error,omitempty"`
	Backend        string  `json:"backend,omitempty"`
	Predictions    []int   `json:"predictions,omitempty"`
	ScoredRows     []int   `json:"scored_rows,omitempty"`
	ClassCounts    []int64 `json:"class_counts,omitempty"`
	RowsScanned    int     `json:"rows_scanned,omitempty"`
	RowsScored     int     `json:"rows_scored,omitempty"`
	CacheHit       bool    `json:"cache_hit"`
	Shards         int     `json:"shards"`
	Reroutes       int     `json:"reroutes,omitempty"`
	StragglerGapNS int64   `json:"straggler_gap_ns"`
	// SimTotalNS is the merged simulated timeline total (per-stage max
	// across shards — the gather critical path).
	SimTotalNS int64      `json:"sim_total_ns"`
	Timeline   []WireSpan `json:"timeline,omitempty"`
	TraceID    string     `json:"trace_id,omitempty"`
}

// Handler serves the router's HTTP surface: /query, /warm and /healthz,
// plus — when the router has an observer — the shared ops endpoints
// (/metrics, /debug/queries, /debug/trace/<id>, /debug/pprof/*), all behind
// the shared request log and HTTP metrics.
func Handler(r *Router) http.Handler {
	h := &handler{r: r}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.handleQuery)
	mux.HandleFunc("/warm", h.handleWarm)
	mux.HandleFunc("/healthz", h.handleHealthz)
	if r.cfg.Obs != nil {
		httpapi.MountOps(mux, r.cfg.Obs)
	}
	return httpapi.Instrument(r.cfg.Obs.Metrics(), mux)
}

type handler struct {
	r *Router
}

// handleQuery routes one scoring statement from ?sql= (GET) or the request
// body (POST). ?tenant= engages tenant-affine routing.
func (h *handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql, code, err := httpapi.Statement(w, r, "sql")
	if err != nil {
		httpapi.WriteJSON(w, code, QueryResponse{Error: err.Error()})
		return
	}
	ctx := r.Context()
	if tmo := r.URL.Query().Get("timeout"); tmo != "" {
		d, err := time.ParseDuration(tmo)
		if err != nil || d <= 0 {
			httpapi.WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad ?timeout=: " + tmo})
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	opts := QueryOptions{
		Tenant: r.URL.Query().Get("tenant"),
		Class:  r.URL.Query().Get("class"),
	}
	merged, err := h.r.Query(ctx, sql, opts)
	if err != nil {
		var se *ShedError
		if errors.As(err, &se) {
			// Admission shed: tell the client when to come back.
			secs := int(se.RetryAfter / time.Second)
			if se.RetryAfter%time.Second != 0 || secs < 1 {
				secs++
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		httpapi.WriteJSON(w, statusFor(err), QueryResponse{Error: err.Error()})
		return
	}
	resp := QueryResponse{
		OK:             true,
		Backend:        merged.Backend,
		Predictions:    merged.Predictions,
		ScoredRows:     merged.ScoredRows,
		ClassCounts:    merged.ClassCounts,
		RowsScanned:    merged.RowsScanned,
		RowsScored:     merged.RowsScored,
		CacheHit:       merged.CacheHit,
		Shards:         merged.Shards,
		Reroutes:       merged.Reroutes,
		StragglerGapNS: int64(merged.StragglerGap),
		SimTotalNS:     int64(merged.Timeline.Total()),
		Timeline:       wireSpans(&merged.Timeline),
		TraceID:        merged.TraceID,
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// statusFor maps a routing error to its HTTP status through the one table
// serve answers from, so clients see consistent codes through either tier.
func statusFor(err error) int { return StatusOf(codeOf(err)) }

// handleWarm fans ?model= to every shard's model cache.
func (h *handler) handleWarm(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "pass ?model="})
		return
	}
	statuses := h.r.Warm(r.Context(), model)
	code := http.StatusOK
	for _, s := range statuses {
		if s.Error != "" {
			code = http.StatusServiceUnavailable
		}
	}
	httpapi.WriteJSON(w, code, map[string]any{"model": model, "shards": statuses})
}

// routerHealth is the /healthz payload: the health state machine's view of
// every shard (state, probe history, reroutes) plus the admission ledger
// when admission control is on.
type routerHealth struct {
	Status    string           `json:"status"`
	Shards    []shardHealth    `json:"shards"`
	Admission []AdmissionStats `json:"admission,omitempty"`
}

type shardHealth struct {
	Shard string `json:"shard"`
	ShardHealthSnapshot
	Reroutes uint64 `json:"reroutes"`
}

// handleHealthz reports the aggregated health picture: each shard's FSM
// state (refreshed by an on-demand probe round) and reroute count. The tier
// is "ok" when every shard is healthy, "degraded" while any shard is
// off-nominal but at least one still takes traffic, and "down" (503) only
// when every shard is quarantined — a degraded tier still serves, so it
// still answers 200.
func (h *handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h.r.health.ProbeAll()
	rh := routerHealth{
		Status:    "ok",
		Shards:    make([]shardHealth, h.r.Shards()),
		Admission: h.r.AdmissionStats(),
	}
	quarantined := 0
	for i, b := range h.r.cfg.Backends {
		snap := h.r.health.Snapshot(i)
		rh.Shards[i] = shardHealth{
			Shard:               b.ID(),
			ShardHealthSnapshot: snap,
			Reroutes:            h.r.RerouteCount(i),
		}
		if snap.State != ShardHealthy {
			rh.Status = "degraded"
		}
		if snap.State == ShardQuarantined {
			quarantined++
		}
	}
	code := http.StatusOK
	if quarantined == h.r.Shards() {
		rh.Status = "down"
		code = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, code, rh)
}
