package router_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"accelscore/internal/pipeline"
	"accelscore/internal/router"
	"accelscore/internal/xrand"
)

// referenceMerge is the gather Merge replaced, kept as its oracle: collect
// every (row, class) pair, sort by row, scan for duplicates, and keep the
// ordinals unless they are exactly 0..n-1.
func referenceMerge(results []*router.Result) (preds, rows []int, err error) {
	type pred struct{ row, class int }
	var all []pred
	dense, partial, scanned := true, false, 0
	for _, r := range results {
		if r == nil {
			partial = true
			continue
		}
		if r.RowsScanned > scanned {
			scanned = r.RowsScanned
		}
		if len(r.ScoredRows) == 0 && len(r.Predictions) > 0 && r.RowsScored == r.RowsScanned {
			for i, p := range r.Predictions {
				all = append(all, pred{i, p})
			}
			continue
		}
		dense = false
		for i, row := range r.ScoredRows {
			all = append(all, pred{row, r.Predictions[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].row < all[j].row })
	for i := 1; i < len(all); i++ {
		if all[i].row == all[i-1].row {
			return nil, nil, fmt.Errorf("row %d scored twice", all[i].row)
		}
	}
	preds = make([]int, len(all))
	keep := !dense && (partial || len(all) != scanned || (len(all) > 0 && all[len(all)-1].row != len(all)-1))
	if keep {
		rows = make([]int, len(all))
	}
	for i, p := range all {
		preds[i] = p.class
		if keep {
			rows[i] = p.row
		}
	}
	return preds, rows, nil
}

// randomScatter draws one gather's input: a table of up to 400 rows, a
// random subset of it scored (everything, now and then), hash-partitioned
// k ways, with some partitions missing. k = 1 with every row scored takes
// the dense single-shard shape (no ordinals on the wire).
func randomScatter(rng *xrand.Rand) []*router.Result {
	k, n := 1+rng.Intn(5), rng.Intn(400)
	selectivity := rng.Float64()
	if rng.Intn(3) == 0 {
		selectivity = 1
	}
	results := make([]*router.Result, k)
	for p := range results {
		results[p] = &router.Result{ShardID: fmt.Sprintf("shard-%d", p), Backend: "CPU_SKLearn", RowsScanned: n, CacheHit: true}
	}
	for row := 0; row < n; row++ {
		if selectivity < 1 && rng.Float64() >= selectivity {
			continue
		}
		r := results[pipeline.RowShard(row, k)]
		r.ScoredRows = append(r.ScoredRows, row)
		r.Predictions = append(r.Predictions, rng.Intn(3))
		r.RowsScored++
	}
	if k == 1 && results[0].RowsScored == n && rng.Intn(2) == 0 {
		results[0].ScoredRows = nil
	}
	for p := range results {
		if k > 1 && rng.Intn(6) == 0 {
			results[p] = nil
		}
	}
	if live := rng.Intn(k); results[live] == nil { // Merge needs one survivor
		results[live] = &router.Result{ShardID: "survivor", RowsScanned: n}
	}
	return results
}

// TestMergeMatchesSortReference: over random scatters the linear k-way
// merge returns what the sort-based gather returned — predictions, the
// decision to keep ordinals and the ordinals, the partial bookkeeping — and
// leaves its inputs untouched.
func TestMergeMatchesSortReference(t *testing.T) {
	rng := xrand.New(12)
	shapes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		results := randomScatter(rng)
		wantPreds, wantRows, err := referenceMerge(results)
		if err != nil {
			t.Fatalf("trial %d: generator produced an invalid scatter: %v", trial, err)
		}
		before := fmt.Sprintf("%+v", derefAll(results))
		m, err := router.Merge(pipeline.AggNone, results)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, before)
		}
		if after := fmt.Sprintf("%+v", derefAll(results)); after != before {
			t.Fatalf("trial %d: Merge modified its inputs", trial)
		}
		if !reflect.DeepEqual(m.Predictions, wantPreds) || !reflect.DeepEqual(m.ScoredRows, wantRows) {
			t.Fatalf("trial %d:\n got %v @ %v\nwant %v @ %v\nfrom %s", trial, m.Predictions, m.ScoredRows, wantPreds, wantRows, before)
		}
		if m.Table != nil {
			t.Fatalf("trial %d: a non-aggregate merge built a %d-row table; the result is Predictions", trial, m.Table.NumRows())
		}
		var missing []int
		for p, r := range results {
			if r == nil {
				missing = append(missing, p)
			}
		}
		if m.Partial != (missing != nil) || !reflect.DeepEqual(m.MissingPartitions, missing) || m.RowsScored != len(wantPreds) {
			t.Fatalf("trial %d: partial=%v missing=%v scored=%d, want missing=%v scored=%d",
				trial, m.Partial, m.MissingPartitions, m.RowsScored, missing, len(wantPreds))
		}
		switch {
		case m.Partial:
			shapes["partial"]++
		case len(results) == 1 && results[0].ScoredRows == nil:
			shapes["dense"]++
		case m.ScoredRows == nil:
			shapes["full scan, ordinals dropped"]++
		default:
			shapes["ordinals kept"]++
		}
	}
	for _, shape := range []string{"partial", "dense", "full scan, ordinals dropped", "ordinals kept"} {
		if shapes[shape] < 50 {
			t.Errorf("only %d trials of shape %q: the generator no longer covers it", shapes[shape], shape)
		}
	}
}

func derefAll(results []*router.Result) []router.Result {
	out := make([]router.Result, len(results))
	for i, r := range results {
		if r != nil {
			out[i] = *r
		}
	}
	return out
}

// TestMergeRejectsBrokenOrder: the sort used to repair descending ordinals
// silently and to find duplicates only after the fact; the linear merge
// must fail on both, naming the shard at fault.
func TestMergeRejectsBrokenOrder(t *testing.T) {
	part := func(id string, rows ...int) *router.Result {
		return &router.Result{ShardID: id, ScoredRows: rows, Predictions: make([]int, len(rows)),
			RowsScanned: 10, RowsScored: len(rows)}
	}
	for _, tc := range []struct {
		name    string
		results []*router.Result
		want    []string
	}{
		{"descending within a partition",
			[]*router.Result{part("shard-0", 0, 2, 4), part("shard-1", 1, 5, 3)},
			[]string{"shard-1", "row 3 out of order after row 5"}},
		{"descending, single partition",
			[]*router.Result{part("shard-0", 7, 6)},
			[]string{"shard-0", "row 6 out of order"}},
		{"repeated within a partition",
			[]*router.Result{part("shard-0", 0, 2, 2), part("shard-1", 1)},
			[]string{"shard-0", "row 2 out of order"}},
		{"scored by two partitions",
			[]*router.Result{part("shard-0", 0, 2, 4), nil, part("shard-2", 1, 2)},
			[]string{"row 2 scored by two partitions", "shard-0", "shard-2"}},
		{"two dense results",
			[]*router.Result{
				{ShardID: "shard-0", Predictions: []int{1, 1}, RowsScanned: 2, RowsScored: 2},
				{ShardID: "shard-1", Predictions: []int{1, 1}, RowsScanned: 2, RowsScored: 2}},
			[]string{"row 0 scored by two partitions"}},
		{"ordinals without predictions",
			[]*router.Result{{ShardID: "shard-0", ScoredRows: []int{1, 2}, Predictions: []int{0}, RowsScanned: 4, RowsScored: 1}},
			[]string{"shard-0", "2 ordinals for 1 predictions"}},
	} {
		m, err := router.Merge(pipeline.AggNone, tc.results)
		if err == nil {
			t.Errorf("%s: merged to %v @ %v", tc.name, m.Predictions, m.ScoredRows)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}
