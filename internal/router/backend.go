package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"accelscore/internal/httpapi"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/storage/pagefmt"
)

// Backend is one shard replica the router can scatter to. Implementations
// classify query-level failures (ones that would fail identically on every
// replica) by wrapping them with NoReroute; every other error reroutes the
// partition, and counts against the shard's health unless it is the shard's
// own back-pressure (a *ShardError with CodeRejected).
type Backend interface {
	// ID names the shard for logs, metrics and merged results.
	ID() string
	// Score runs one sub-query (already partitioned) on the shard.
	Score(ctx context.Context, req Request) (*Result, error)
	// Warm pre-loads a model into the shard's compiled-model cache,
	// returning the cache status ("hit", "miss" or "nocache").
	Warm(ctx context.Context, model string) (string, error)
	// Healthz probes shard liveness.
	Healthz(ctx context.Context) error
}

// Local is an in-process shard over a pipeline — the HTTP-free path the
// conformance scale-out leg and the merge tests drive, so scatter/merge
// correctness is separable from transport concerns.
type Local struct {
	Name string
	Pipe *pipeline.Pipeline
}

// ID implements Backend.
func (l *Local) ID() string { return l.Name }

// Score implements Backend by executing directly on the wrapped pipeline.
func (l *Local) Score(ctx context.Context, req Request) (*Result, error) {
	sreq, err := req.ScoreRequest()
	if err != nil {
		return nil, NoReroute(err)
	}
	res, err := l.Pipe.ExecScoreCtx(ctx, sreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// Pipeline errors are query-level (unknown model/table, bad
		// filter): identical on every data-symmetric replica.
		return nil, NoReroute(err)
	}
	return WireResult(l.Name, sreq.Agg, res)
}

// Warm implements Backend.
func (l *Local) Warm(ctx context.Context, model string) (string, error) {
	return l.Pipe.WarmModel(model)
}

// Healthz implements Backend; an in-process pipeline is always live.
func (l *Local) Healthz(ctx context.Context) error { return nil }

// SharedTransport builds the tuned http.Transport every router/loadgen
// client must share: connection reuse sized to the worker population so a
// closed-loop load never thrashes TCP handshakes (the default transport
// keeps only 2 idle conns per host and silently serializes reconnects).
func SharedTransport(maxPerHost int) *http.Transport {
	if maxPerHost < 2 {
		maxPerHost = 2
	}
	return &http.Transport{
		MaxIdleConns:        4 * maxPerHost,
		MaxIdleConnsPerHost: maxPerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// ShardError is a shard's own refusal of a sub-query: the error reply it
// put on the wire, with the failure class (Code is one of the Code*
// constants) intact so the router's caller sees a timeout as a timeout.
type ShardError struct {
	Shard string
	Code  string
	Msg   string
}

// Error implements error.
func (e *ShardError) Error() string { return fmt.Sprintf("router: shard %s: %s", e.Shard, e.Msg) }

// HTTPShard is a shard reached over its serve process's /score endpoint.
type HTTPShard struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPShard builds a shard backend for baseURL ("http://host:port").
// client may be nil; pass one http.Client (with SharedTransport) shared by
// every shard so connection pools are reused.
func NewHTTPShard(name, baseURL string, client *http.Client) (*HTTPShard, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("router: bad shard URL %q", baseURL)
	}
	if client == nil {
		client = &http.Client{Transport: SharedTransport(16), Timeout: 120 * time.Second}
	}
	return &HTTPShard{name: name, base: strings.TrimRight(u.String(), "/"), client: client}, nil
}

// ID implements Backend.
func (s *HTTPShard) ID() string { return s.name }

// wireTap is where a sub-query reports the decode of its reply: a lane of
// the routed query's trace and the router's metrics. Router.Score hangs one
// on each sub-query's context; a Score call made outside a router carries
// none and goes unobserved (both fields are nil-safe).
type wireTap struct {
	trace   *obs.Trace
	lane    string
	metrics *obs.RouterMetrics
}

type wireTapKey struct{}

// bodyPool recycles /score reply buffers: a reply is decoded into a Result
// that shares no memory with it, so the bytes are dead once Score returns.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Score implements Backend by POSTing the wire request to /score and
// decoding the frame the shard answers with.
func (s *HTTPShard) Score(ctx context.Context, req Request) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, NoReroute(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/score", bytes.NewReader(body))
	if err != nil {
		return nil, NoReroute(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("router: shard %s: %w", s.name, err)
	}
	defer resp.Body.Close()

	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if n := resp.ContentLength; n > 0 && n <= MaxFrameBytes+pagefmt.FrameOverhead {
		// ReadFrom wants MinRead spare bytes to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	// One byte past the cap, so an oversized reply fails its decode instead
	// of being cut to a prefix that might parse.
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxFrameBytes+pagefmt.FrameOverhead+1)); err != nil {
		return nil, fmt.Errorf("router: shard %s: reading /score response (HTTP %d): %w",
			s.name, resp.StatusCode, err)
	}
	tap, _ := ctx.Value(wireTapKey{}).(wireTap)
	end := tap.trace.StartSpanOn(tap.lane, "wire decode")
	res, err := DecodeFrame(buf.Bytes())
	tap.metrics.ObserveWire(buf.Len(), end())
	if err != nil {
		return nil, fmt.Errorf("router: shard %s: decoding /score response (HTTP %d): %w",
			s.name, resp.StatusCode, err)
	}
	if res.Error != "" {
		err := &ShardError{Shard: s.name, Code: res.Code, Msg: res.Error}
		if res.Code == CodeBadRequest {
			// The query would fail the same way on every replica.
			return nil, NoReroute(err)
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: shard %s: HTTP %d from /score", s.name, resp.StatusCode)
	}
	return res, nil
}

// ShardHandler is the server end of the shard protocol HTTPShard speaks —
// POST /score and /warm?model= — over any Backend: NewHTTPShard pointed at
// it returns what b returns, Result for Result and failure class for
// failure class. cmd/serve mounts it over its executor; tests mount it over
// fakes.
func ShardHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) { serveScore(b, w, r) })
	mux.HandleFunc("/warm", func(w http.ResponseWriter, r *http.Request) { serveWarm(b, w, r) })
	return mux
}

// serveScore executes one routed sub-query. The body is a wire Request; the
// response is a wire Result as one binary frame, whatever the caller's
// Accept header says. A failure is a frame too, with Error and a Code that
// tells the router whether rerouting to another replica can help
// (bad_request never reroutes; rejected/timeout/internal may).
func serveScore(b Backend, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		// A Result with no predictions always encodes.
		_ = writeFrame(w, http.StatusMethodNotAllowed, &Result{Error: "POST a JSON score request", Code: CodeBadRequest})
		return
	}
	var req Request
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeScoreError(w, NoReroute(fmt.Errorf("decoding request: %w", err)))
		return
	}
	res, err := b.Score(r.Context(), req)
	if err == nil {
		err = writeFrame(w, http.StatusOK, res)
	}
	if err != nil {
		writeScoreError(w, err)
	}
}

// writeScoreError puts a failed sub-query on the wire under its class. A
// ShardError travels as its bare message: the receiving HTTPShard names the
// shard again.
func writeScoreError(w http.ResponseWriter, err error) {
	code, msg := codeOf(err), err.Error()
	var se *ShardError
	if errors.As(err, &se) {
		msg = se.Msg
	}
	// A Result with no predictions always encodes.
	_ = writeFrame(w, StatusOf(code), &Result{Error: msg, Code: code})
}

// writeFrame answers a /score request with res as one frame. It fails, having
// written nothing, only on a result the frame cannot carry.
func writeFrame(w http.ResponseWriter, status int, res *Result) error {
	frame, err := EncodeFrame(res)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", FrameContentType)
	// Stated, so the router sizes its read buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(status)
	if _, err := w.Write(frame); err != nil {
		log.Printf("score response: %v", err)
	}
	return nil
}

// serveWarm pre-loads ?model= into the shard's compiled-model cache so the
// first routed sub-query does not pay model resolution behind the gather
// barrier. The response status field is the cache outcome: "hit" (already
// resident), "miss" (loaded now) or "nocache".
func serveWarm(b Backend, w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		httpapi.WriteJSON(w, http.StatusBadRequest, warmResponse{Error: "pass ?model="})
		return
	}
	status, err := b.Warm(r.Context(), model)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusNotFound, warmResponse{Model: model, Error: err.Error()})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, warmResponse{Model: model, Status: status})
}

// warmResponse is the /warm JSON payload, both ends.
type warmResponse struct {
	Model  string `json:"model"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// Warm implements Backend via the shard's /warm endpoint.
func (s *HTTPShard) Warm(ctx context.Context, model string) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.base+"/warm?model="+url.QueryEscape(model), nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("router: warming shard %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	var wr warmResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wr); err != nil {
		return "", fmt.Errorf("router: shard %s: decoding /warm response: %w", s.name, err)
	}
	if wr.Error != "" {
		return "", errors.New(wr.Error)
	}
	return wr.Status, nil
}

// Healthz implements Backend via the shard's /healthz endpoint.
func (s *HTTPShard) Healthz(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: shard %s: healthz HTTP %d", s.name, resp.StatusCode)
	}
	return nil
}
