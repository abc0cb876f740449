// Shard-side endpoints of the scale-out serving tier. A serve process acts
// as one data-symmetric shard: the router POSTs pre-validated wire requests
// (with a hash partition assigned) to /score, warms the model cache through
// /warm, and probes /healthz. SQL is parsed exactly once, at the router —
// shards execute the structured request directly through the concurrent
// executor, keeping admission control and coalescing on the shard-local
// scoring path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	osexec "os/exec"
	"strconv"
	"strings"
	"sync"

	"accelscore/internal/exec"
	"accelscore/internal/faults"
	"accelscore/internal/router"
)

// handleScore executes one routed sub-query. The body is a router wire
// Request; the response is a router wire Result — one binary frame when the
// caller's Accept header asks for router.FrameContentType, JSON otherwise
// (curl, an older router). A failure is always the small JSON Result, with
// Error and a Code that tells the router whether rerouting to another
// replica can help (bad_request never reroutes; rejected/timeout/internal
// may).
func (s *server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeScoreError(w, http.StatusMethodNotAllowed, router.CodeBadRequest,
			"POST a JSON score request")
		return
	}
	var wreq router.Request
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&wreq); err != nil {
		writeScoreError(w, http.StatusBadRequest, router.CodeBadRequest,
			"decoding request: "+err.Error())
		return
	}
	sreq, err := wreq.ScoreRequest()
	if err != nil {
		writeScoreError(w, http.StatusBadRequest, router.CodeBadRequest, err.Error())
		return
	}
	res, err := s.exec.SubmitScore(r.Context(), sreq)
	if err != nil {
		code, status := classifyError(err)
		writeScoreError(w, status, code, err.Error())
		return
	}
	out, err := router.WireResult(s.shardID, sreq.Agg, res)
	if err != nil {
		writeScoreError(w, http.StatusInternalServerError, router.CodeInternal, err.Error())
		return
	}
	if r.Header.Get("Accept") != router.FrameContentType {
		writeScoreJSON(w, http.StatusOK, out)
		return
	}
	frame, err := router.EncodeFrame(out)
	if err != nil {
		writeScoreError(w, http.StatusInternalServerError, router.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", router.FrameContentType)
	// Stated, so the router sizes its read buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	if _, err := w.Write(frame); err != nil {
		log.Printf("score response: %v", err)
	}
}

// classifyError is the one table from an executor error to its /score wire
// code and HTTP status; /query answers with the same status. A device fault
// that outlived the executor's retries and fallback, or an open breaker with
// no fallback, is this shard's trouble: internal, so the router reroutes the
// partition and counts the failure against the shard's health. Anything
// unrecognized is query-level (unknown model, bad filter): on
// data-symmetric replicas it fails identically everywhere, so the router
// must not reroute it or hold it against the shard.
func classifyError(err error) (code string, status int) {
	switch {
	case errors.Is(err, exec.ErrRejected), errors.Is(err, exec.ErrClosed):
		return router.CodeRejected, http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return router.CodeTimeout, http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status exists for logs and metrics.
		return router.CodeCanceled, StatusClientClosedRequest
	case faults.Injected(err), errors.Is(err, exec.ErrBreakerOpen):
		return router.CodeInternal, http.StatusInternalServerError
	default:
		return router.CodeBadRequest, http.StatusBadRequest
	}
}

func writeScoreError(w http.ResponseWriter, status int, code, msg string) {
	writeScoreJSON(w, status, &router.Result{Error: msg, Code: code})
}

func writeScoreJSON(w http.ResponseWriter, status int, res *router.Result) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(res); err != nil {
		log.Printf("score response: %v", err)
	}
}

// handleWarm pre-loads ?model= into the shard's compiled-model cache so the
// first routed sub-query does not pay model resolution behind the gather
// barrier. The response status field is the cache outcome: "hit" (already
// resident), "miss" (loaded now) or "nocache".
func (s *server) handleWarm(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		writeWarmJSON(w, http.StatusBadRequest, warmPayload{Error: "pass ?model="})
		return
	}
	status, err := s.demo.Pipe.WarmModel(model)
	if err != nil {
		writeWarmJSON(w, http.StatusNotFound, warmPayload{Model: model, Error: err.Error()})
		return
	}
	writeWarmJSON(w, http.StatusOK, warmPayload{Model: model, Status: status})
}

// warmPayload mirrors the /warm JSON contract the router's HTTPShard reads.
type warmPayload struct {
	Model  string `json:"model"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func writeWarmJSON(w http.ResponseWriter, status int, p warmPayload) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(p); err != nil {
		log.Printf("warm response: %v", err)
	}
}

// gitDescribe identifies the build for /healthz, memoized: the tree does
// not change under a running server, and health probes are frequent.
var gitDescribe = sync.OnceValue(func() string {
	out, err := osexec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})
