package router_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/pipeline"
	"accelscore/internal/router"
	"accelscore/internal/xrand"
)

// referenceMerge is the gather Merge replaced, kept as its oracle: collect
// every (row, class) pair — a filtered result's from its ordinals, a stripe
// result's from the rows RowShard assigns its stripe — sort by row, scan for
// duplicates, and keep the ordinals when the statement filtered or unless
// they are exactly 0..n-1.
func referenceMerge(results []*router.Result) (preds, rows []int, err error) {
	type pred struct{ row, class int }
	var all []pred
	filtered, scanned := false, 0
	for k, r := range results {
		if r.RowsScanned > scanned {
			scanned = r.RowsScanned
		}
		if !r.Fused {
			i := 0
			for row := 0; row < r.RowsScanned; row++ {
				if pipeline.RowShard(row, len(results)) == k {
					all = append(all, pred{row, r.Predictions[i]})
					i++
				}
			}
			continue
		}
		filtered = true
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
	keep := filtered || len(all) != scanned || (len(all) > 0 && all[len(all)-1].row != len(all)-1)
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

// randomScatter draws one gather's input: a table of up to 400 rows striped
// k ways, and either every row scored (stripe results, no ordinals on the
// wire) or a filtered subset (everything, now and then) listed by ordinal,
// now and then with some partitions missing.
func randomScatter(rng *xrand.Rand) []*router.Result {
	k, n := 1+rng.Intn(5), rng.Intn(400)
	filtered, selectivity := rng.Intn(2) == 0, rng.Float64()
	if rng.Intn(3) == 0 {
		selectivity = 1
	}
	results := make([]*router.Result, k)
	for p := range results {
		results[p] = &router.Result{ShardID: fmt.Sprintf("shard-%d", p), Backend: "CPU_SKLearn", RowsScanned: n, CacheHit: true, Fused: filtered}
	}
	for row := 0; row < n; row++ {
		if filtered && rng.Float64() >= selectivity {
			continue
		}
		r := results[pipeline.RowShard(row, k)]
		if filtered {
			r.ScoredRows = append(r.ScoredRows, row)
		}
		r.Predictions = append(r.Predictions, rng.Intn(3))
		r.RowsScored++
	}
	for p := range results {
		if rng.Intn(6) == 0 {
			results[p] = nil
		}
	}
	return results
}

// TestMergeMatchesSortReference: over random scatters the linear k-way
// merge returns what the sort-based gather returned — predictions, the
// decision to keep ordinals and the ordinals — and leaves its inputs
// untouched; a scatter with a partition missing is no answer at all.
func TestMergeMatchesSortReference(t *testing.T) {
	rng := xrand.New(12)
	shapes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		results := randomScatter(rng)
		before := fmt.Sprintf("%+v", derefAll(results))
		m, err := router.Merge(pipeline.AggNone, results)
		if missing := slices.Index(results, nil); missing >= 0 {
			shapes["partition missing"]++
			if m != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("partition %d ", missing)) {
				t.Fatalf("trial %d: partition %d missing, Merge = %+v, %v; want an error naming it", trial, missing, m, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, before)
		}
		wantPreds, wantRows, err := referenceMerge(results)
		if err != nil {
			t.Fatalf("trial %d: generator produced an invalid scatter: %v", trial, err)
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
		if m.RowsScored != len(wantPreds) {
			t.Fatalf("trial %d: scored=%d, want %d", trial, m.RowsScored, len(wantPreds))
		}
		switch {
		case len(results) == 1 && !results[0].Fused:
			shapes["one stripe"]++
		case m.ScoredRows == nil:
			shapes["full scan, ordinals dropped"]++
		default:
			shapes["ordinals kept"]++
		}
	}
	for _, shape := range []string{"partition missing", "one stripe", "full scan, ordinals dropped", "ordinals kept"} {
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
// must fail on both, naming the shard at fault. A result without ordinals
// must be exactly its stripe — a shard answering another stripe, or an
// older shard listing a hash partition's ordinals, fails the query too.
func TestMergeRejectsBrokenOrder(t *testing.T) {
	part := func(id string, rows ...int) *router.Result {
		return &router.Result{ShardID: id, ScoredRows: rows, Predictions: make([]int, len(rows)),
			RowsScanned: 10, RowsScored: len(rows), Fused: true}
	}
	stripe := func(id string, preds, scanned int) *router.Result {
		return &router.Result{ShardID: id, Predictions: make([]int, preds), RowsScanned: scanned, RowsScored: preds}
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
			[]*router.Result{part("shard-0", 0, 2, 4), part("shard-1"), part("shard-2", 1, 2)},
			[]string{"row 2 scored by two partitions", "shard-0", "shard-2"}},
		{"two dense results",
			[]*router.Result{stripe("shard-0", 2, 2), stripe("shard-1", 2, 2)},
			[]string{"shard-1", "2 predictions", "stripe 1/2 of 2 rows, which holds 0"}},
		{"ordinals without predictions",
			[]*router.Result{{ShardID: "shard-0", ScoredRows: []int{1, 2}, Predictions: []int{0}, RowsScanned: 4, RowsScored: 1, Fused: true}},
			[]string{"shard-0", "2 ordinals for 1 predictions"}},
		{"stripe a row short",
			[]*router.Result{stripe("shard-0", 64, 130), stripe("shard-1", 65, 130)},
			[]string{"shard-0", "64 predictions", "stripe 0/2 of 130 rows, which holds 66"}},
		{"empty stripe that holds rows",
			[]*router.Result{stripe("shard-0", 64, 128), stripe("shard-1", 0, 128)},
			[]string{"shard-1", "0 predictions", "which holds 64"}},
		{"rows scored disagree with predictions",
			[]*router.Result{{ShardID: "shard-0", Predictions: []int{0, 1}, RowsScanned: 2, RowsScored: 1}},
			[]string{"shard-0", "(1 scored, 0 ordinals)", "which holds 2"}},
		{"hash-partition ordinals on an unfiltered result",
			[]*router.Result{{ShardID: "shard-0", ScoredRows: []int{0, 1}, Predictions: []int{0, 1}, RowsScanned: 2, RowsScored: 2}},
			[]string{"shard-0", "2 ordinals"}},
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

// stripeRefuser refuses one stripe on every replica the way a full queue
// does: the router reroutes it, and charges no shard's health for it.
type stripeRefuser struct {
	router.Backend
	part string
}

func (s stripeRefuser) Score(ctx context.Context, req router.Request) (*router.Result, error) {
	if req.Partition == s.part {
		return nil, &router.ShardError{Shard: s.ID(), Code: router.CodeRejected, Msg: "stripe refused"}
	}
	return s.Backend.Score(ctx, req)
}

// TestStripeMergeIsBitIdentical: over random tables of 0–1 000 rows (most
// not a multiple of 64, some short of a stripe per shard), widths 1–8, with
// and without a WHERE, a router over router.Local shards answers what a
// single node answers, field for field; with one stripe unreachable it
// answers nothing: a PartialError naming that stripe, and on /query a 503
// with no predictions. The stripes' row counts always sum to the table.
func TestStripeMergeIsBitIdentical(t *testing.T) {
	pipe := newShardPipeline(t, 1)
	rng := xrand.New(26)
	shapes := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		rows, width := rng.Intn(1001), 1+rng.Intn(8)
		table := fmt.Sprintf("t%d", rows)
		if _, err := pipe.DB.Table(table); err != nil {
			tbl, err := db.TableFromDataset(table, dataset.Iris().Replicate(rows))
			if err == nil {
				err = pipe.DB.CreateTable(tbl)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sql := fmt.Sprintf("EXEC sp_score_model @model='iris_rf', @data='%s', @backend='CPU_ONNX'", table)
		if rng.Intn(2) == 0 {
			sql += ", @where='petal_width < 1.5'"
		}
		sum := 0
		for k := 0; k < width; k++ {
			sum += pipeline.Partition{Index: k, Count: width}.Rows(rows)
		}
		if sum != rows {
			t.Fatalf("%d rows striped %d ways: the stripes hold %d", rows, width, sum)
		}

		backends := make([]router.Backend, width)
		missing := -1
		if width > 1 && rng.Intn(3) == 0 {
			missing = rng.Intn(width)
		}
		for i := range backends {
			backends[i] = stripeRefuser{&router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: pipe}, fmt.Sprintf("%d/%d", missing, width)}
		}
		r, err := router.New(router.Config{Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(context.Background(), sql, router.QueryOptions{})
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%d rows, width %d, stripe %d missing, %q): %s", trial, rows, width, missing, sql, fmt.Sprintf(format, args...))
		}
		if missing >= 0 {
			shapes["stripe missing"]++
			var pe *router.PartialError
			if got != nil || !errors.As(err, &pe) || !slices.Equal(pe.Missing, []int{missing}) {
				fail("answered %+v, %v; want no answer and a *router.PartialError naming the stripe", got, err)
			}
			rec := httptest.NewRecorder()
			router.Handler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?sql="+url.QueryEscape(sql), nil))
			var qr router.QueryResponse
			if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusServiceUnavailable || qr.OK || qr.Predictions != nil {
				fail("/query = HTTP %d %+v, want 503 ok:false with no predictions", rec.Code, qr)
			}
			r.Close()
			continue
		}
		r.Close()
		if err != nil {
			fail("%v", err)
		}
		want, err := pipe.ExecQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shards != width || got.RowsScanned != want.RowsScanned {
			fail("%d wide over %d rows, single node %d rows", got.Shards, got.RowsScanned, want.RowsScanned)
		}
		shapes[fmt.Sprintf("whole, filtered %v", want.ScoredRows != nil)]++
		if !slices.Equal(got.Predictions, want.Predictions) || got.RowsScored != want.RowsScored ||
			!slices.Equal(got.ScoredRows, want.ScoredRows) || (got.ScoredRows == nil) != (want.ScoredRows == nil) {
			fail("merged %d predictions @ %d ordinals (nil %v), single node %d @ %d (nil %v)",
				len(got.Predictions), len(got.ScoredRows), got.ScoredRows == nil,
				len(want.Predictions), len(want.ScoredRows), want.ScoredRows == nil)
		}
	}
	for _, shape := range []string{"whole, filtered false", "whole, filtered true", "stripe missing"} {
		if shapes[shape] < 20 {
			t.Errorf("only %d trials of shape %q", shapes[shape], shape)
		}
	}
}
