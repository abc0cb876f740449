// Package httpapi is the one HTTP/ops layer under both serving binaries:
// cmd/serve (a shard) and cmd/router (the scatter-gather front) listen, log,
// meter, drain and expose their observer through the same code, so a header,
// a span or a log attribute on the process→client seam has one place to go.
// It knows nothing of scoring; it must stay importable by internal/harness
// without linking the harness into the binaries.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	osexec "os/exec"
	"os/signal"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"accelscore/internal/obs"
)

// HTTP telemetry metric names.
const (
	// MetricHTTPRequestsTotal counts requests by route and status code.
	MetricHTTPRequestsTotal = "accelscore_http_requests_total"
	// MetricHTTPRequestSeconds is the request latency histogram by route.
	MetricHTTPRequestSeconds = "accelscore_http_request_seconds"
)

// Serve listens on addr until SIGINT or SIGTERM, then stops accepting,
// gives in-flight requests 10 s, and runs the drains in order under what is
// left of that budget: each one may assume the HTTP server and every drain
// before it have stopped (serve drains its executor, then closes the store
// the executor was writing to). It returns the listener's error, nil after a
// clean shutdown.
func Serve(addr string, h http.Handler, writeTimeout time.Duration, drain ...func(context.Context) error) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	for _, d := range drain {
		if err := d(shutdownCtx); err != nil {
			log.Printf("drain: %v", err)
		}
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// statusWriter captures the response code for the request log and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Instrument wraps mux with the request log line and, when reg is non-nil,
// the HTTP-level metrics.
func Instrument(reg *obs.Registry, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if reg != nil {
			route := routeLabel(mux, r)
			reg.Counter(MetricHTTPRequestsTotal,
				"HTTP requests served, by route and status code.",
				"route", route, "code", fmt.Sprint(sw.code)).Inc()
			reg.Histogram(MetricHTTPRequestSeconds,
				"HTTP request latency in seconds, by route.",
				obs.DefBuckets, "route", route).Observe(elapsed.Seconds())
		}
		log.Printf("%s %s %d %v", r.Method, r.URL.Path, sw.code, elapsed.Round(time.Microsecond))
	})
}

// routeLabel is the pattern the mux matched r with: a bounded metric label,
// so an attacker probing random URLs cannot blow up metric cardinality. A
// path no pattern claims — nothing matched, or only a root catch-all did — is
// "other".
func routeLabel(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" || pattern == "/" && r.URL.Path != "/" {
		return "other"
	}
	return pattern
}

// MountOps mounts the observability surface of o on mux: /metrics
// (Prometheus text format), /debug/queries (recent traces as text),
// /debug/trace/<id> (Chrome trace-event JSON) and /debug/pprof/*.
func MountOps(mux *http.ServeMux, o *obs.Observer) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Metrics().WritePrometheus(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, renderQueries(o.Tracer))
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		if id == "" {
			http.Error(w, "trace id required: /debug/trace/<id>", http.StatusBadRequest)
			return
		}
		tr, ok := o.Tracer.Get(id)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %q not retained (ring keeps the last %d)",
				id, o.Tracer.Capacity()), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".json"))
		if err := tr.WriteChromeTrace(w); err != nil {
			log.Printf("trace %s: %v", id, err)
		}
	})
	// net/http/pprof under the same middleware as everything else — live CPU
	// profiles, heap snapshots and execution traces from a serving process —
	// and under one pattern: profile names are bounded, but there is no
	// reason to spend a route label per profile.
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
		case "cmdline":
			pprof.Cmdline(w, r)
		case "profile":
			pprof.Profile(w, r)
		case "symbol":
			pprof.Symbol(w, r)
		case "trace":
			pprof.Trace(w, r)
		default:
			pprof.Index(w, r)
		}
	})
}

// renderQueries lists the tracer's retained queries, newest first: attrs in
// key order, wall spans with their lane (a routed query has one per shard)
// and, on a measured stage, its cost, then the simulated tracks.
func renderQueries(t *obs.Tracer) string {
	recent := t.Recent() // already newest-first
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d recent queries (newest first, ring capacity %d)\n\n", len(recent), t.Capacity())
	for _, tr := range recent {
		snap := tr.Snapshot()
		status := "running"
		if snap.Done {
			status = "done"
			if snap.Attrs["error"] != "" {
				status = "error: " + snap.Attrs["error"]
			}
		}
		fmt.Fprintf(&sb, "%s  %-22s wall %-12v %s\n",
			snap.ID, snap.Name, snap.Wall.Round(time.Microsecond), status)
		keys := make([]string, 0, len(snap.Attrs))
		for k := range snap.Attrs {
			if k != "error" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "    %-26s %s\n", k, snap.Attrs[k])
		}
		for _, span := range snap.WallSpans {
			fmt.Fprintf(&sb, "    wall  %-26s %v", span.Name, span.Duration.Round(time.Microsecond))
			if span.Track != "" {
				fmt.Fprintf(&sb, "  [%s]", span.Track)
			}
			if c := span.Cost; c.Stage != "" {
				fmt.Fprintf(&sb, "  cpu=%v alloc=%dB/%d objs",
					c.CPUTime.Round(time.Microsecond), c.AllocBytes, c.AllocObjects)
			}
			sb.WriteByte('\n')
		}
		for _, track := range snap.Tracks {
			fmt.Fprintf(&sb, "    track %s (total %v)\n", track.Name, track.Total)
			for _, span := range track.Spans {
				fmt.Fprintf(&sb, "      [%-8s] %-26s %v\n", span.Kind, span.Name, span.Duration)
			}
		}
		fmt.Fprintf(&sb, "    download: /debug/trace/%s\n\n", snap.ID)
	}
	return sb.String()
}

// MaxStatementBytes bounds the body of a statement request (/sql, /query).
const MaxStatementBytes = 1 << 20

// Statement returns a statement request's text: the query parameter param,
// else the trimmed body. On an error it also returns the status to answer:
// 413 for a body over MaxStatementBytes, which is refused, never run cut
// short; 400 for any other read error or no statement at all.
func Statement(w http.ResponseWriter, r *http.Request, param string) (string, int, error) {
	if sql := r.URL.Query().Get(param); sql != "" {
		return sql, http.StatusOK, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxStatementBytes))
	var tooBig *http.MaxBytesError
	switch sql := strings.TrimSpace(string(body)); {
	case errors.As(err, &tooBig):
		return "", http.StatusRequestEntityTooLarge, fmt.Errorf("reading body: %w", err)
	case err != nil:
		return "", http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	case sql == "":
		return "", http.StatusBadRequest, fmt.Errorf("no statement: pass ?%s= or a POST body", param)
	default:
		return sql, http.StatusOK, nil
	}
}

// WriteJSON answers with v as JSON under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("response: %v", err)
	}
}

// GitDescribe identifies the build for /healthz and the working tree for a
// measurement artifact, memoized: the commit go build stamped into the
// binary, else (go run, go test) git describe of the working directory, else
// "unknown".
var GitDescribe = sync.OnceValue(func() string {
	if info, ok := debug.ReadBuildInfo(); ok && describeBuild(info) != "" {
		return describeBuild(info)
	}
	out, err := osexec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})

// describeBuild spells a build's VCS stamp as git describe --always --dirty
// spells an untagged tree, "" for a build with no stamp.
func describeBuild(info *debug.BuildInfo) string {
	stamp := map[string]string{}
	for _, s := range info.Settings {
		stamp[s.Key] = s.Value
	}
	if rev := stamp["vcs.revision"]; len(rev) >= 7 && stamp["vcs.modified"] == "true" {
		return rev[:7] + "-dirty"
	} else if len(rev) >= 7 {
		return rev[:7]
	}
	return ""
}
