package router

import (
	"fmt"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/pipeline"
	"accelscore/internal/sim"
)

// Merged is a gathered scatter result, shaped like a single-node
// pipeline.QueryResult so callers (and conformance) can compare them
// directly.
type Merged struct {
	// Predictions holds one class per scored row, ordered by scan ordinal.
	Predictions []int
	// ScoredRows lists the global scan ordinals behind Predictions when the
	// statement filtered or a partial gather lost rows; nil otherwise
	// (matching the single-node shape).
	ScoredRows []int
	// Table is the fused aggregate's result table; nil for a non-aggregate
	// query, whose result is Predictions.
	Table *db.Table
	// ClassCounts is the summed fused-aggregate histogram (nil for
	// non-aggregate queries).
	ClassCounts []int64
	// Backend is the engine that scored (first shard's spelling; shards
	// are symmetric).
	Backend string
	// Timeline is the merged O/L/C breakdown: per-stage MAX across shards,
	// the gather critical path — stages that run in parallel across shards
	// cost the tier their slowest instance, not their sum.
	Timeline sim.Timeline
	// RowsScanned is the table size each shard scanned; RowsScored sums
	// the per-shard scored rows.
	RowsScanned, RowsScored int
	// CacheHit reports whether EVERY shard served from its model cache.
	CacheHit bool
	// Partial marks an explicit partial result: MissingPartitions lists
	// the hash partitions with no surviving route; their rows are absent
	// from Predictions/ScoredRows, never zero-filled.
	Partial           bool
	MissingPartitions []int
	// Shards is the scatter width; Reroutes counts partitions that moved
	// off their preferred shard.
	Shards, Reroutes int
	// Hedges counts sub-queries that fired a tail-latency hedge; HedgeWins
	// counts hedges whose replica answered before the primary.
	Hedges, HedgeWins int
	// StragglerGap is slowest minus fastest sub-query latency; per-shard
	// latencies are in ShardLatency, indexed by partition.
	StragglerGap time.Duration
	ShardLatency []time.Duration
	// TraceID identifies the router-side trace, when tracing is on.
	TraceID string
}

// mergeTimelines folds shard timelines per stage: span names keep their
// first-seen order, each taking its MAX duration across shards.
func mergeTimelines(results []*Result) sim.Timeline {
	var order []string
	type agg struct {
		kind int
		max  int64
	}
	byName := make(map[string]*agg)
	for _, r := range results {
		for _, s := range r.Timeline {
			a, ok := byName[s.Name]
			if !ok {
				a = &agg{kind: s.Kind}
				byName[s.Name] = a
				order = append(order, s.Name)
			}
			if s.NS > a.max {
				a.max = s.NS
			}
		}
	}
	var tl sim.Timeline
	for _, name := range order {
		a := byName[name]
		tl.Add(name, sim.Kind(a.kind), time.Duration(a.max))
	}
	return tl
}

// mergeHead is one partition's read position in the k-way merge.
type mergeHead struct {
	r    *Result
	rows []int // nil for a dense result: prediction i is ordinal i
	i    int
}

// row is the scan ordinal of the partition's i-th prediction.
func (h *mergeHead) row(i int) int {
	if h.rows == nil {
		return i
	}
	return h.rows[i]
}

// Merge gathers per-partition shard results into one Merged. results is
// indexed by partition; a nil entry is a missing partition (the caller
// already classified it partial). mode is the query's aggregation. Each
// result's ScoredRows must ascend strictly and no ordinal may appear in two
// results; Merge verifies both and fails otherwise. It does not modify the
// results.
func Merge(mode pipeline.AggMode, results []*Result) (*Merged, error) {
	m := &Merged{Shards: len(results)}
	present := make([]*Result, 0, len(results))
	for k, r := range results {
		if r == nil {
			m.Partial = true
			m.MissingPartitions = append(m.MissingPartitions, k)
			continue
		}
		present = append(present, r)
	}
	if len(present) == 0 {
		return nil, fmt.Errorf("router: no shard results to merge")
	}
	m.Backend = present[0].Backend
	m.CacheHit = true
	for _, r := range present {
		if r.RowsScanned > m.RowsScanned {
			m.RowsScanned = r.RowsScanned
		}
		m.RowsScored += r.RowsScored
		m.CacheHit = m.CacheHit && r.CacheHit
	}
	m.Timeline = mergeTimelines(present)

	if mode != pipeline.AggNone {
		for _, r := range present {
			for cls, c := range r.ClassCounts {
				for len(m.ClassCounts) <= cls {
					m.ClassCounts = append(m.ClassCounts, 0)
				}
				m.ClassCounts[cls] += c
			}
		}
		tbl, err := pipeline.AggTable(mode, nil, m.ClassCounts)
		if err != nil {
			return nil, err
		}
		m.Table = tbl
		return m, nil
	}

	// Non-aggregate: k-way merge by global scan ordinal. Scan order makes
	// every partition's ordinals ascend, so the merge is linear and checks
	// as it goes that they do, within and across partitions; it never sorts,
	// so a result that breaks the order fails the query instead of being
	// repaired. A result without ScoredRows scored every scanned row
	// (single-shard or tenant routing): row i is ordinal i.
	heads := make([]mergeHead, 0, len(present))
	dense, filtered, total, last := true, false, 0, -1
	for _, r := range present {
		// Without an aggregate, Fused means a pushed-down WHERE.
		filtered = filtered || r.Fused
		h := mergeHead{r: r, rows: r.ScoredRows}
		if len(r.ScoredRows) == 0 && len(r.Predictions) > 0 && r.RowsScored == r.RowsScanned {
			h.rows = nil
		} else {
			dense = false
			if len(r.ScoredRows) != len(r.Predictions) {
				return nil, fmt.Errorf("router: shard %s returned %d ordinals for %d predictions",
					r.ShardID, len(r.ScoredRows), len(r.Predictions))
			}
		}
		if n := len(r.Predictions); n > 0 {
			heads = append(heads, h)
			total += n
			if end := h.row(n - 1); end > last {
				last = end
			}
		}
	}
	m.Predictions = make([]int, total)
	// The ordinals are kept when the statement filtered (a single node lists
	// them even if every row passed), and otherwise unless they are exactly
	// 0..total-1 (the merge below proves last is the largest, or fails).
	if !dense && (filtered || m.Partial || total != m.RowsScanned || last != total-1) {
		m.ScoredRows = make([]int, total)
	}
	prev, prevRes := -1, (*Result)(nil)
	for n := 0; n < total; n++ {
		best, row := 0, heads[0].row(heads[0].i)
		for k := 1; k < len(heads); k++ {
			if r := heads[k].row(heads[k].i); r < row {
				best, row = k, r
			}
		}
		h := &heads[best]
		switch {
		case row == prev && prevRes != h.r:
			return nil, fmt.Errorf("router: row %d scored by two partitions (shards %s and %s)",
				row, prevRes.ShardID, h.r.ShardID)
		case row <= prev:
			return nil, fmt.Errorf("router: shard %s: row %d out of order after row %d", h.r.ShardID, row, prev)
		}
		prev, prevRes = row, h.r
		m.Predictions[n] = h.r.Predictions[h.i]
		if m.ScoredRows != nil {
			m.ScoredRows[n] = row
		}
		if h.i++; h.i == len(h.r.Predictions) {
			heads[best] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	return m, nil
}
