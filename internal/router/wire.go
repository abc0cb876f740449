// Package router implements the sharded scatter-gather serving tier: a
// front over N data-symmetric shard replicas (every shard holds the full
// table) that picks each scoring query's scatter width from the rows the
// statement can touch (Router.plan), stripes the rows that many ways (64-row
// word b of the stable row ordinals goes to partition b mod width; width 1
// is always the unpartitioned sub-query), scatters one
// sub-query per partition to the shards its health state machine lets take
// traffic, and merges the shard results — predictions keyed by scan
// ordinal, class-count histograms summed, simulated O/L/C timelines folded
// per stage — into a single result bit-identical to a single-node run. The
// package owns the whole routing decision: scatter and reroute, shard
// health and admission. It also owns both ends of the router→shard
// seam: HTTPShard is the client and ShardHandler the server of /score and
// /warm, and StatusOf is the one failure-class → HTTP-status table either
// tier answers from.
//
// The paper's question ("is acceleration worth the overheads?") recurs at
// tier scale: the scatter buys parallel scoring but pays router overheads
// (serialization, HTTP, the gather barrier's straggler gap) that do not
// amortize with width, so a query too small to repay them is not scattered.
// The router measures exactly those costs via accelscore_router_* metrics
// and per-shard trace tracks.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/pipeline"
	"accelscore/internal/sim"
)

// Request is the wire form of a validated scoring request: the router
// parses SQL once, then POSTs this JSON (with a per-shard Partition) to
// each shard's /score endpoint, so shards never re-parse SQL.
type Request struct {
	Model   string `json:"model"`
	Data    string `json:"data"`
	Backend string `json:"backend,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	// TimeoutNS is the query's own deadline in nanoseconds (0 = none).
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	// Where is the pushed-down filter in canonical FormatConditions form.
	Where string `json:"where,omitempty"`
	// Agg is the fused aggregation mode: "none", "count" or "group_count".
	Agg string `json:"agg,omitempty"`
	// Partition is the shard's stripe as "k/n" ("" = all rows).
	Partition string `json:"partition,omitempty"`
}

// WireRequest renders a validated scoring request for the wire.
func WireRequest(req *pipeline.ScoreRequest) Request {
	w := Request{
		Model:     req.Model,
		Data:      req.Data,
		Backend:   req.Backend,
		Limit:     req.Limit,
		TimeoutNS: int64(req.Timeout),
		Where:     db.FormatConditions(req.Where),
		Partition: req.Partition.String(),
	}
	if req.Agg != pipeline.AggNone {
		w.Agg = req.Agg.String()
	}
	return w
}

// ScoreRequest re-validates the wire request into the pipeline form.
func (r Request) ScoreRequest() (*pipeline.ScoreRequest, error) {
	if r.Model == "" || r.Data == "" {
		return nil, fmt.Errorf("router: request needs model and data")
	}
	req := &pipeline.ScoreRequest{
		Model:   r.Model,
		Data:    r.Data,
		Backend: r.Backend,
		Limit:   r.Limit,
		Timeout: time.Duration(r.TimeoutNS),
	}
	if r.Limit < 0 {
		return nil, fmt.Errorf("router: negative limit %d", r.Limit)
	}
	if r.TimeoutNS < 0 {
		return nil, fmt.Errorf("router: negative timeout %d", r.TimeoutNS)
	}
	if r.Where != "" {
		conds, err := db.ParseConditionList(r.Where)
		if err != nil {
			return nil, fmt.Errorf("router: where: %v", err)
		}
		req.Where = conds
	}
	agg, err := pipeline.ParseAgg(r.Agg)
	if err != nil {
		return nil, err
	}
	req.Agg = agg
	if r.Partition != "" {
		part, err := pipeline.ParsePartition(r.Partition)
		if err != nil {
			return nil, err
		}
		req.Partition = part
	}
	return req, nil
}

// WireSpan is one simulated-timeline span on the wire; Kind uses the
// sim.Kind integer encoding.
type WireSpan struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
	NS   int64  `json:"ns"`
}

// wireSpans flattens a timeline.
func wireSpans(tl *sim.Timeline) []WireSpan {
	spans := tl.Spans()
	out := make([]WireSpan, len(spans))
	for i, s := range spans {
		out[i] = WireSpan{Name: s.Name, Kind: int(s.Kind), NS: int64(s.Duration)}
	}
	return out
}

// Error codes a shard's /score endpoint uses to classify failures so the
// router knows whether rerouting can help.
const (
	// CodeBadRequest marks query-level errors that fail identically on
	// every replica (unknown model, malformed filter): never rerouted.
	CodeBadRequest = "bad_request"
	// CodeRejected marks admission-queue shedding (the shard is
	// overloaded): rerouting to a less loaded replica can help.
	CodeRejected = "rejected"
	// CodeTimeout marks a query deadline expiry on the shard.
	CodeTimeout = "timeout"
	// CodeCanceled marks client-cancellation observed by the shard.
	CodeCanceled = "canceled"
	// CodeInternal marks everything else.
	CodeInternal = "internal"
)

// StatusOf is the one table from a failure class to its HTTP status, on
// both hops: a shard's /score, serve's /query and /sql, the router's /query.
func StatusOf(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeRejected:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		// nginx's non-standard "client closed request": the caller is gone,
		// the status exists to keep cancels apart from timeouts in logs and
		// metrics.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// codeOf classes a Backend's or the router's own failure. Only an error some
// layer marked query-level (NoReroute: parse, validation, unknown model) is
// the client's fault; a query's own deadline or cancel keeps its class
// through the gather; a shard's refusal keeps the class it had on the wire;
// a query the router refused or no shard could serve (ShedError,
// PartialError, RouteError) is the tier being unavailable, not a bad
// request.
func codeOf(err error) string {
	var (
		se   *ShardError
		pe   *PartialError
		re   *RouteError
		shed *ShedError
	)
	switch {
	case IsNoReroute(err):
		return CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.As(err, &pe), errors.As(err, &shed):
		return CodeRejected
	case errors.As(err, &se):
		return se.Code
	case errors.As(err, &re):
		return CodeRejected
	default:
		return CodeInternal
	}
}

// Result is the wire form of one shard's sub-query outcome.
type Result struct {
	ShardID string `json:"shard_id,omitempty"`
	Backend string `json:"backend,omitempty"`
	// Predictions holds one class per scored row; ScoredRows holds the
	// matching scan ordinals (global, post-@limit) when a pushed-down WHERE
	// restricted scoring (Fused); an unfiltered result's are its stripe's.
	Predictions []int `json:"predictions,omitempty"`
	ScoredRows  []int `json:"scored_rows,omitempty"`
	// ClassCounts carries fused-aggregate results: indexed by class for
	// group_count, a single total for count.
	ClassCounts    []int64    `json:"class_counts,omitempty"`
	RowsScanned    int        `json:"rows_scanned"`
	RowsScored     int        `json:"rows_scored"`
	CacheHit       bool       `json:"cache_hit"`
	Fused          bool       `json:"fused"`
	FallbackFrom   string     `json:"fallback_from,omitempty"`
	FallbackReason string     `json:"fallback_reason,omitempty"`
	TraceID        string     `json:"trace_id,omitempty"`
	Timeline       []WireSpan `json:"timeline,omitempty"`
	ScoringDetail  []WireSpan `json:"scoring_detail,omitempty"`
	// Error and Code report a failed sub-query (everything above is then
	// unset): Code is one of the Code* constants.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// WireResult renders a shard-local QueryResult for the wire. mode is the
// request's aggregation mode, needed to lift the result table back into
// mergeable class counts.
func WireResult(shardID string, mode pipeline.AggMode, res *pipeline.QueryResult) (*Result, error) {
	out := &Result{
		ShardID:        shardID,
		Backend:        res.Backend,
		Predictions:    res.Predictions,
		ScoredRows:     res.ScoredRows,
		RowsScanned:    res.RowsScanned,
		RowsScored:     res.RowsScored,
		CacheHit:       res.CacheHit,
		Fused:          res.Fused,
		FallbackFrom:   res.FallbackFrom,
		FallbackReason: res.FallbackReason,
		TraceID:        res.TraceID,
		Timeline:       wireSpans(&res.Timeline),
		ScoringDetail:  wireSpans(&res.ScoringDetail),
	}
	switch mode {
	case pipeline.AggNone:
	case pipeline.AggCount:
		if res.Table == nil || res.Table.NumRows() != 1 {
			return nil, fmt.Errorf("router: count result has no count row")
		}
		out.ClassCounts = []int64{res.Table.Rows()[0][0].I}
	case pipeline.AggGroupCount:
		if res.Table == nil {
			return nil, fmt.Errorf("router: group_count result has no table")
		}
		for _, row := range res.Table.Rows() {
			cls := int(row[0].I)
			if cls < 0 {
				return nil, fmt.Errorf("router: negative class %d in group_count result", cls)
			}
			for len(out.ClassCounts) <= cls {
				out.ClassCounts = append(out.ClassCounts, 0)
			}
			out.ClassCounts[cls] = row[1].I
		}
	default:
		return nil, fmt.Errorf("router: unknown aggregation mode %v", mode)
	}
	return out, nil
}
