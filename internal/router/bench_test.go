package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"accelscore/internal/pipeline"
	"accelscore/internal/router"
)

// scanPartitions builds what the shards of a k-wide tier return for a full
// scan of `rows` rows: partition p holds the ordinals RowShard assigns it,
// three classes, the timeline a CPU engine reports.
func scanPartitions(k, rows int) []*router.Result {
	out := make([]*router.Result, k)
	for p := range out {
		out[p] = &router.Result{
			ShardID: fmt.Sprintf("shard-%d", p), Backend: "CPU_SKLearn", RowsScanned: rows,
			CacheHit: true, TraceID: "q-000123",
			Timeline: []router.WireSpan{
				{Name: "model pre-processing", Kind: 0, NS: 2_113_000},
				{Name: "data pre-processing", Kind: 0, NS: 11_400_000},
				{Name: "scoring", Kind: 2, NS: 131_274_379},
				{Name: "post-processing", Kind: 0, NS: 9_800_000},
			},
			ScoringDetail: []router.WireSpan{{Name: "tree traversal", Kind: 2, NS: 131_274_379}},
		}
	}
	for row := 0; row < rows; row++ {
		r := out[pipeline.RowShard(row, k)]
		r.ScoredRows = append(r.ScoredRows, row)
		r.Predictions = append(r.Predictions, row%3)
		r.RowsScored++
	}
	return out
}

var (
	benchWire   []byte
	benchResult *router.Result
	benchMerged *router.Merged
)

// The wire benchmarks move one scan_plain sub-result (12.5k of 25k rows),
// once per iteration, through the codec each side of /score runs: encode on
// the shard, decode on the router. SetBytes counts the encoded bytes.

func BenchmarkWireEncode(b *testing.B) {
	res := scanPartitions(2, 25000)[0]
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(res); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
		benchWire = buf.Bytes()
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := router.EncodeFrame(res)
			if err != nil {
				b.Fatal(err)
			}
			benchWire = frame
		}
		b.SetBytes(int64(len(benchWire)))
	})
}

func BenchmarkWireDecode(b *testing.B) {
	res := scanPartitions(2, 25000)[0]
	b.Run("json", func(b *testing.B) {
		wire, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchResult = new(router.Result)
			if err := json.Unmarshal(wire, benchResult); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		wire, err := router.EncodeFrame(res)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if benchResult, err = router.DecodeFrame(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMerge gathers one full scan per iteration: the scan_plain tier
// (2 shards, 25k rows) and a wider, larger one.
func BenchmarkMerge(b *testing.B) {
	for _, tier := range []struct{ shards, perShard int }{{2, 12500}, {4, 100000}} {
		b.Run(fmt.Sprintf("%dx%d", tier.shards, tier.perShard), func(b *testing.B) {
			parts := scanPartitions(tier.shards, tier.shards*tier.perShard)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := router.Merge(pipeline.AggNone, parts)
				if err != nil {
					b.Fatal(err)
				}
				benchMerged = m
			}
		})
	}
}

// BenchmarkRouterQuery is the router hop's own layer benchmark: one routed
// query per iteration through a Router over two loopback shards (HTTPShard →
// ShardHandler → Local, frames on the wire), on either side of the plan's
// crossover: @limit 64 is one sub-query, @limit 4096 and an unbounded scan of
// the 5 000-row table are two.
func BenchmarkRouterQuery(b *testing.B) {
	pipe := newShardPipeline(b, 5000)
	backends := make([]router.Backend, 2)
	for i := range backends {
		backends[i] = servedShard(b, &router.Local{Name: fmt.Sprintf("shard-%d", i), Pipe: pipe}, nil)
	}
	r, err := router.New(router.Config{Backends: backends, WarmModels: []string{"iris_rf"}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for _, q := range []struct{ name, sql string }{
		{"limit64", boundedSQL},
		{"limit4096", plainSQL + ", @limit=4096"},
		{"unbounded", plainSQL},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := r.Query(context.Background(), q.sql, router.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				benchMerged = m
			}
		})
	}
}
