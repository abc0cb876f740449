package pipeline_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"accelscore/internal/pipeline"
)

func TestParsePartition(t *testing.T) {
	good := map[string]pipeline.Partition{
		"0/1":    {Index: 0, Count: 1},
		"3/4":    {Index: 3, Count: 4},
		" 1 / 2": {Index: 1, Count: 2},
	}
	for s, want := range good {
		got, err := pipeline.ParsePartition(s)
		if err != nil {
			t.Fatalf("ParsePartition(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParsePartition(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "1", "1/0", "-1/4", "4/4", "a/4", "1/b", "0/999999"} {
		if _, err := pipeline.ParsePartition(s); err == nil {
			t.Fatalf("ParsePartition(%q) accepted", s)
		}
	}
	if got := (pipeline.Partition{Index: 2, Count: 4}).String(); got != "2/4" {
		t.Fatalf("String() = %q", got)
	}
	if got := (pipeline.Partition{}).String(); got != "" {
		t.Fatalf("zero String() = %q", got)
	}
}

// TestRowShardTilesAllRows checks the assignment is total, stable, and not
// degenerate: every row lands in exactly one partition and no partition is
// starved on a realistic row count.
func TestRowShardTilesAllRows(t *testing.T) {
	const rows, n = 10000, 4
	counts := make([]int, n)
	for r := 0; r < rows; r++ {
		s := pipeline.RowShard(r, n)
		if s < 0 || s >= n {
			t.Fatalf("RowShard(%d, %d) = %d", r, n, s)
		}
		if s != pipeline.RowShard(r, n) {
			t.Fatalf("RowShard(%d, %d) not deterministic", r, n)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < rows/n/2 || c > rows/n*2 {
			t.Fatalf("partition %d holds %d of %d rows; skewed hash", i, c, rows)
		}
	}
}

// TestPartitionsUnionToSingleNode scores each of n partitions separately and
// checks that merging by scan ordinal reproduces the unpartitioned result
// bit for bit — the invariant the scale-out router's gather depends on.
func TestPartitionsUnionToSingleNode(t *testing.T) {
	p, _, data := newPipeline(t, 8, 10, 500)
	whole, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX'")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	merged := make([]int, data.NumRecords())
	seen := make([]bool, data.NumRecords())
	for k := 0; k < n; k++ {
		res, err := p.ExecQuery(fmt.Sprintf(
			"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX', @partition='%d/%d'", k, n))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fused {
			t.Fatal("partition-only query reported Fused")
		}
		if res.RowsScanned != data.NumRecords() {
			t.Fatalf("partition %d scanned %d rows, want %d", k, res.RowsScanned, data.NumRecords())
		}
		if len(res.ScoredRows) != len(res.Predictions) {
			t.Fatalf("partition %d: %d scored rows vs %d predictions",
				k, len(res.ScoredRows), len(res.Predictions))
		}
		if !sort.IntsAreSorted(res.ScoredRows) {
			t.Fatalf("partition %d: scored rows not ascending", k)
		}
		for i, row := range res.ScoredRows {
			if pipeline.RowShard(row, n) != k {
				t.Fatalf("row %d landed in partition %d, RowShard says %d",
					row, k, pipeline.RowShard(row, n))
			}
			if seen[row] {
				t.Fatalf("row %d scored by two partitions", row)
			}
			seen[row] = true
			merged[row] = res.Predictions[i]
		}
	}
	for row, ok := range seen {
		if !ok {
			t.Fatalf("row %d scored by no partition", row)
		}
	}
	for row := range merged {
		if merged[row] != whole.Predictions[row] {
			t.Fatalf("row %d: merged %d, single-node %d", row, merged[row], whole.Predictions[row])
		}
	}
}

// TestPartitionComposesWithWhere splits a filtered query across partitions:
// the union of the partitioned, filtered results must equal the single-node
// filtered result, preserving order by scan ordinal.
func TestPartitionComposesWithWhere(t *testing.T) {
	p, _, data := newFusionPipeline(t, 400)
	where := data.FeatureNames[3] + " < 1.5"
	whole, err := p.ExecQuery(fmt.Sprintf(
		"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX', @where='%s'", where))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	type pred struct{ row, class int }
	var got []pred
	for k := 0; k < n; k++ {
		res, err := p.ExecQuery(fmt.Sprintf(
			"EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_ONNX', @where='%s', @partition='%d/%d'",
			where, k, n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fused {
			t.Fatal("filtered partition query not marked fused")
		}
		for i, row := range res.ScoredRows {
			got = append(got, pred{row, res.Predictions[i]})
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].row < got[j].row })
	if len(got) != len(whole.Predictions) {
		t.Fatalf("partitions scored %d rows, single-node scored %d", len(got), len(whole.Predictions))
	}
	for i := range got {
		if got[i].row != whole.ScoredRows[i] {
			t.Fatalf("scored-row %d: merged ordinal %d, single-node %d", i, got[i].row, whole.ScoredRows[i])
		}
		if got[i].class != whole.Predictions[i] {
			t.Fatalf("scored-row %d: merged class %d, single-node %d", i, got[i].class, whole.Predictions[i])
		}
	}
}

// TestPartitionClassCountsSumToWhole checks the fused-aggregate path: the
// per-partition GROUP BY histograms must sum to the single-node histogram.
func TestPartitionClassCountsSumToWhole(t *testing.T) {
	p, f, _ := newPipeline(t, 8, 10, 400)
	whole, err := p.ExecQuery(
		"SELECT prediction, COUNT(*) FROM PREDICT(@model='iris_rf', @data='iris', @backend='CPU_ONNX') GROUP BY prediction")
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int64, f.NumClasses)
	const n = 3
	for k := 0; k < n; k++ {
		req := &pipeline.ScoreRequest{
			Model: "iris_rf", Data: "iris", Backend: "CPU_ONNX",
			Agg: pipeline.AggGroupCount, Partition: pipeline.Partition{Index: k, Count: n},
		}
		res, err := p.ExecScoreCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.Table.NumRows(); i++ {
			cls := res.Table.Rows()[i][0].I
			cnt := res.Table.Rows()[i][1].I
			sum[cls] += cnt
		}
	}
	for i := 0; i < whole.Table.NumRows(); i++ {
		cls := int(whole.Table.Rows()[i][0].I)
		cnt := whole.Table.Rows()[i][1].I
		if sum[cls] != cnt {
			t.Fatalf("class %d: partitions sum to %d, single-node %d", cls, sum[cls], cnt)
		}
	}
}
