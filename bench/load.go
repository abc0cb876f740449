package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// client is one closed-loop caller: it sends its next request only after the
// previous reply was read and checked, as a DBMS session does. Its state
// outlives a phase, so the window continues where the warm-up stopped.
type client struct {
	id    int
	w     workload
	http  *http.Client
	fleet *fleet
	sched *schedule
	orc   *oracle
	sz    sizes

	// next is the index of this client's next operation.
	next int

	attempted, failed int
	firstErr          error
	ops               []op
}

// op is one completed operation. For ingest_then_score it is one whole
// iteration (the INSERT acked by both shards, then the score), and insert
// and score split its latency.
type op struct {
	sample
	insert, score time.Duration
	// sent is when the scoring statement left.
	sent time.Time
}

// post sends body to url and returns the reply; any status but 200 is an
// error carrying the start of the body.
func post(ctx context.Context, hc *http.Client, url, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", url, resp.StatusCode, buf)
	}
	return buf, nil
}

// query sends one scoring statement to the router, times it into o until the
// reply's body had been read, and returns the decoded reply. Decoding is
// outside the timed span: it is the caller's cost, not the tier's.
func (c *client) query(ctx context.Context, sql string, o *op) (*queryResponse, error) {
	o.sent = time.Now()
	body, err := post(ctx, c.http, c.fleet.router.url+"/query", sql)
	o.score = time.Since(o.sent)
	if err != nil {
		return nil, err
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /query reply: %w", err)
	}
	return &resp, nil
}

// insertNext sends the client's next scheduled INSERT to every shard in turn
// (the tier has no write path through the router; shards are replicas) and
// returns how long the last took to acknowledge it as durable under its
// fsync policy.
func (c *client) insertNext(ctx context.Context) (time.Duration, error) {
	stmts := c.sched.inserts[c.id]
	if c.next >= len(stmts) {
		return 0, fmt.Errorf("insert schedule of %d statements exhausted", len(stmts))
	}
	sql := stmts[c.next]
	c.next++
	t0 := time.Now()
	for _, sh := range c.fleet.shards {
		body, err := post(ctx, c.http, sh.url+"/sql", sql)
		if err != nil {
			return 0, err
		}
		var ack struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || !ack.OK {
			return 0, fmt.Errorf("%s /sql not acknowledged: %s %v", sh.name, ack.Error, err)
		}
	}
	return time.Since(t0), nil
}

// check verifies a reply to the client's workload. n is the @limit of a
// small_point query and the row count of the client's table for
// ingest_then_score; the scans ignore it.
func (c *client) check(resp *queryResponse, n int) error {
	switch c.w.name {
	case "small_point":
		return verifyPredictions(resp, c.orc.point[:n])
	case "scan_plain":
		return verifyPredictions(resp, c.orc.scan)
	case "scan_fused":
		return verifyCounts(resp, c.orc.fused)
	default:
		return verifyPredictions(resp, c.orc.events[c.id][:n])
	}
}

// tableRows is how many rows the client's ingest table holds by now.
func (c *client) tableRows() int { return c.orc.baseRows + c.next*insertRowsPerStmt }

// do runs the client's next operation and verifies the reply.
func (c *client) do(ctx context.Context) (op, error) {
	var o op
	var sql string
	var n int
	switch c.w.name {
	case "small_point":
		// Clients read the shared limit cycle at different offsets.
		n = c.sched.limits[(c.next+c.id*len(c.sched.limits)/2)%len(c.sched.limits)]
		c.next++
		sql = pointSQL(n)
	case "scan_plain":
		sql = scanPlainSQL
	case "scan_fused":
		sql = scanFusedSQL(c.sz.fusedLimit)
	case "ingest_then_score":
		var err error
		if o.insert, err = c.insertNext(ctx); err != nil {
			return o, err
		}
		sql, n = ingestScoreSQL(c.id), c.tableRows()
	}
	resp, err := c.query(ctx, sql, &o)
	if err == nil {
		err = c.check(resp, n)
	}
	o.latency = o.insert + o.score
	return o, err
}

// probeSim scores the traced statement once on the tier as booted, before
// any INSERT has grown a table, and returns the reply's simulated total. The
// table sizes are then the seeded ones, so the figure repeats exactly.
func (c *client) probeSim(ctx context.Context) (int64, error) {
	n := pointLimits[1]
	if c.w.name == "ingest_then_score" {
		n = c.tableRows()
	}
	var o op
	resp, err := c.query(ctx, traceStatement(c.w, c.sz), &o)
	if err == nil {
		err = c.check(resp, n)
	}
	if err != nil {
		return 0, fmt.Errorf("first query: %w", err)
	}
	return resp.SimTotalNS, nil
}

// run issues operations back to back until the deadline, recording each
// against start. A failed operation is counted and its error kept; it has no
// latency sample, so a failing run cannot look fast.
func (c *client) run(ctx context.Context, start time.Time, length time.Duration, record bool) {
	for time.Since(start) < length && ctx.Err() == nil {
		o, err := c.do(ctx)
		if !record {
			if err != nil && c.firstErr == nil {
				c.firstErr = fmt.Errorf("during warm-up: %w", err)
			}
			continue
		}
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		o.done = time.Since(start)
		c.ops = append(c.ops, o)
	}
}

// runPhase runs every client for length and waits for the operations in
// flight at the end to finish.
func runPhase(ctx context.Context, clients []*client, length time.Duration, record bool) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(ctx, start, length, record)
		}(c)
	}
	wg.Wait()
}
