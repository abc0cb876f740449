package accelscore_test

import (
	"fmt"
	"slices"
	"testing"

	"accelscore/internal/backend"
	"accelscore/internal/core"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/experiments"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/kernel"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
)

// This file holds one benchmark per paper table/figure (DESIGN.md §4) plus
// the design-choice ablations (DESIGN.md §5). The figure benchmarks measure
// the cost of regenerating the figure's data and attach the figure's key
// simulated ratio as a custom metric, so `go test -bench=.` both exercises
// the harness and reports the reproduced numbers.

// BenchmarkFig1Shmoo regenerates the Fig. 1 optimal-backend concept grid.
func BenchmarkFig1Shmoo(b *testing.B) {
	tb := platform.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Advisor.Shmoo("IRIS", 4, 3, 10, experiments.RecordSweep, experiments.TreeSweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7FPGABreakdown regenerates the FPGA scoring-time breakdowns.
func BenchmarkFig7FPGABreakdown(b *testing.B) {
	s := experiments.NewSuite()
	var rows []experiments.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = s.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
	// Report the 1-record HIGGS/128-tree overall time in microseconds.
	for _, r := range rows {
		if r.Records == 1 && r.Dataset == "HIGGS" && r.Trees == 128 {
			b.ReportMetric(float64(r.Total.Microseconds()), "1rec-total-µs")
		}
	}
}

// BenchmarkFig8OptimalBackend regenerates both shmoo grids with speedups.
func BenchmarkFig8OptimalBackend(b *testing.B) {
	s := experiments.NewSuite()
	var higgs *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		if _, err = s.Fig8(experiments.IrisShape); err != nil {
			b.Fatal(err)
		}
		if higgs, err = s.Fig8(experiments.HiggsShape); err != nil {
			b.Fatal(err)
		}
	}
	last := higgs.Cells[len(higgs.Cells)-1]
	b.ReportMetric(last[len(last)-1].Speedup, "higgs-1M-128t-speedup")
}

// BenchmarkFig9Latency regenerates all eight latency panels.
func BenchmarkFig9Latency(b *testing.B) {
	s := experiments.NewSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Throughput regenerates all eight throughput panels and
// reports the FPGA's peak throughput on the flagship panel.
func BenchmarkFig10Throughput(b *testing.B) {
	s := experiments.NewSuite()
	var panels []experiments.Fig10Panel
	var err error
	for i := 0; i < b.N; i++ {
		if panels, err = s.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		if p.Label == "h" {
			_, peak := p.PeakThroughput()
			b.ReportMetric(peak/1e6, "peak-Mscorings/s")
		}
	}
}

// BenchmarkFig11EndToEnd regenerates the end-to-end query breakdowns and
// reports the paper's ~2.6x HIGGS/1M query speedup.
func BenchmarkFig11EndToEnd(b *testing.B) {
	s := experiments.NewSuite()
	var rows []experiments.Fig11Row
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
	if sp, err := experiments.QuerySpeedup(rows, "HIGGS", 128, 1_000_000); err == nil {
		b.ReportMetric(sp, "e2e-speedup")
	}
}

// BenchmarkHeadlineRatios recomputes the §IV-C headline numbers.
func BenchmarkHeadlineRatios(b *testing.B) {
	s := experiments.NewSuite()
	var hs []experiments.Headline
	var err error
	for i := 0; i < b.N; i++ {
		if hs, err = s.Headlines(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hs[0].FPGASpeedup, "iris-fpga-x")
	b.ReportMetric(hs[1].FPGASpeedup, "higgs-fpga-x")
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAblationFPGAStreamOverlap quantifies the record-stream/compute
// overlap of §IV-B: the metric is the slowdown from disabling it at 1M HIGGS
// records.
func BenchmarkAblationFPGAStreamOverlap(b *testing.B) {
	tb := platform.New()
	stats := forest.SyntheticStats(1, 10, 28, 2)
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, err := tb.FPGA.Estimate(stats, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		without, err := tb.FPGA.WithoutOverlap().Estimate(stats, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(without.Total()) / float64(with.Total())
	}
	b.ReportMetric(ratio, "no-overlap-slowdown")
}

// BenchmarkAblationFPGABRAMSpill quantifies the BRAM-residency advantage the
// paper credits for the FPGA's win (§IV-C1): scoring slowdown when tree
// memories spill to device DRAM.
func BenchmarkAblationFPGABRAMSpill(b *testing.B) {
	tb := platform.New()
	stats := forest.SyntheticStats(128, 10, 4, 3)
	spilled := tb.FPGA.WithBRAMBytes(1 << 20)
	var ratio float64
	for i := 0; i < b.N; i++ {
		fit, err := tb.FPGA.Estimate(stats, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := spilled.Estimate(stats, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(sp.Total()) / float64(fit.Total())
	}
	b.ReportMetric(ratio, "spill-slowdown")
}

// BenchmarkAblationRAPIDSConvertCost isolates the ~120 ms cuDF conversion
// that moves the RAPIDS/Hummingbird crossover (§IV-C2).
func BenchmarkAblationRAPIDSConvertCost(b *testing.B) {
	tb := platform.New()
	stats := forest.SyntheticStats(128, 10, 28, 2)
	noConvert := tb.RAPIDS.WithoutConvertCost()
	var deltaMs float64
	for i := 0; i < b.N; i++ {
		with, err := tb.RAPIDS.Estimate(stats, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		without, err := noConvert.Estimate(stats, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		deltaMs = float64((with.Total() - without.Total()).Milliseconds())
	}
	b.ReportMetric(deltaMs, "convert-cost-ms")
}

// BenchmarkAblationPipelineIntegration compares the external-Python pipeline
// with the §IV-E tightly-integrated alternative at 1M HIGGS records.
func BenchmarkAblationPipelineIntegration(b *testing.B) {
	tb := platform.New()
	stats := forest.SyntheticStats(128, 10, 28, 2)
	loose := &pipeline.Pipeline{Runtime: hw.DefaultRuntime(), Registry: tb.Registry}
	tight := &pipeline.Pipeline{Runtime: hw.TightlyIntegratedRuntime(), Registry: tb.Registry}
	var ratio float64
	for i := 0; i < b.N; i++ {
		lt, _, err := loose.Estimate(stats, 1_000_000, 1<<21, "FPGA")
		if err != nil {
			b.Fatal(err)
		}
		tt, _, err := tight.Estimate(stats, 1_000_000, 1<<21, "FPGA")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(lt.Total()) / float64(tt.Total())
	}
	b.ReportMetric(ratio, "tight-integration-x")
}

// BenchmarkAblationAdvisorPolicies compares static always-CPU and
// always-FPGA placement with the advisor's oracle across the Fig. 8 grid:
// the metric is total simulated time of each policy over the sweep,
// reproducing the wrong-decision penalties as an aggregate.
func BenchmarkAblationAdvisorPolicies(b *testing.B) {
	tb := platform.New()
	var cpuTotal, fpgaTotal, oracleTotal float64
	for i := 0; i < b.N; i++ {
		cpuTotal, fpgaTotal, oracleTotal = 0, 0, 0
		for _, n := range experiments.RecordSweep {
			for _, trees := range experiments.TreeSweep {
				cfg := core.Config{Features: 28, Classes: 2, Trees: trees, Depth: 10, Records: n}
				d, err := tb.Advisor.Decide(cfg)
				if err != nil {
					b.Fatal(err)
				}
				oracleTotal += d.Best.Time.Seconds()
				cpuTotal += d.BestCPU.Time.Seconds()
				ftl, err := tb.FPGA.Estimate(cfg.Stats(), n)
				if err != nil {
					b.Fatal(err)
				}
				fpgaTotal += ftl.Total().Seconds()
			}
		}
	}
	b.ReportMetric(cpuTotal/oracleTotal, "always-cpu-vs-oracle")
	b.ReportMetric(fpgaTotal/oracleTotal, "always-fpga-vs-oracle")
}

// --- Functional wall-clock benchmarks of the Go implementations ---

// BenchmarkFunctionalAllBackends measures the real Go execution cost of
// scoring 2K HIGGS records on each backend's functional simulator.
func BenchmarkFunctionalAllBackends(b *testing.B) {
	tb := platform.New()
	data := dataset.Higgs(2000, 1)
	f, err := forest.Train(dataset.Higgs(1500, 9), forest.ForestConfig{
		NumTrees:  16,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := &backend.Request{Forest: f, Data: data}
	for _, be := range tb.AllBackends() {
		b.Run(be.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := be.Score(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Hot-path benchmarks (compiled-model cache + flat kernel + bulk moves) ---

// hotPathPipeline builds a pipeline over a DB holding a HIGGS-shaped table
// and a trained model, with or without the compiled-model cache.
func hotPathPipeline(b *testing.B, f *forest.Forest, data *dataset.Dataset, cached bool) *pipeline.Pipeline {
	b.Helper()
	tb := platform.New()
	d := db.New()
	tbl, err := db.TableFromDataset("higgs", data)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable(tbl); err != nil {
		b.Fatal(err)
	}
	if err := d.StoreModel("higgs_rf", f); err != nil {
		b.Fatal(err)
	}
	p := &pipeline.Pipeline{DB: d, Runtime: hw.DefaultRuntime(), Registry: tb.Registry}
	if cached {
		p.Cache = pipeline.NewModelCache(8)
	}
	return p
}

// BenchmarkPipelineHotPath measures the real wall-clock cost of a repeated
// EXEC sp_score_model query in the paper's overhead-dominated regime (small
// record counts, production-sized model — Fig. 11's point is that model and
// data pre-processing dominate exactly there). "cold" is the pre-PR path: no
// cache, so every query re-deserializes the model blob, recomputes its
// stats, re-lowers it to the flat kernel and re-converts the input table.
// "warm" is the cached hot path after one priming query. The acceptance bar
// is a >= 2x warm speedup with byte-identical predictions.
func BenchmarkPipelineHotPath(b *testing.B) {
	const query = "EXEC sp_score_model @model='higgs_rf', @data='higgs', @backend='CPU_SKLearn'"
	f, err := forest.Train(dataset.Higgs(1500, 9), forest.ForestConfig{
		NumTrees:  64,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{64, 256} {
		data := dataset.Higgs(rows, 1)
		b.Run(fmt.Sprintf("cold/rows=%d", rows), func(b *testing.B) {
			p := hotPathPipeline(b, f, data, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecQuery(query); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/rows=%d", rows), func(b *testing.B) {
			p := hotPathPipeline(b, f, data, true)
			if _, err := p.ExecQuery(query); err != nil { // prime the caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := p.ExecQuery(query)
				if err != nil {
					b.Fatal(err)
				}
				if !res.CacheHit {
					b.Fatal("warm query missed the cache")
				}
			}
		})
		// The two observed variants bracket the cost of per-query resource
		// attribution on the warm path: warm+obs pays for metrics and
		// tracing, warm+attrib adds the thread pinning and cost sampling on
		// top. The attribution acceptance bar is warm+attrib within 5% of
		// warm+obs.
		for _, attrib := range []bool{false, true} {
			name := fmt.Sprintf("warm+obs/rows=%d", rows)
			if attrib {
				name = fmt.Sprintf("warm+attrib/rows=%d", rows)
			}
			b.Run(name, func(b *testing.B) {
				p := hotPathPipeline(b, f, data, true)
				o := obs.NewObserver()
				o.Attribution = attrib
				p.Obs = o
				if _, err := p.ExecQuery(query); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := p.ExecQuery(query)
					if err != nil {
						b.Fatal(err)
					}
					if attrib && res.Attribution == nil {
						b.Fatal("attribution missing from observed query")
					}
				}
			})
		}
	}
}

// BenchmarkKernelPredict measures the shared flat kernel in the regimes the
// serving benchmark's workloads put it in (bench/README.md), one unit of work
// per iteration, single-threaded unless the name says otherwise so the layout
// and visiting order are isolated from parallelism:
//
//   - flat-kernel-*: dense HIGGS 20k rows, 32 trees × depth 10, against the
//     scalar pointer walk the kernel replaced;
//   - fused-64x10-sel25-*: scan_fused's per-shard call — PredictAggregate
//     over 20k HIGGS rows and the 64 × depth-10 model, under the selection the
//     shard builds (lepton_eta > 0 and one of two hash partitions, about a
//     quarter of the rows), with one worker and with GOMAXPROCS;
//   - small-8x6: ingest_then_score's model, dense over 10k rows;
//   - skewed-16x24: one-sided depth-24 chains, where most rows leave a tree
//     long before its depth — the guard on the lock-step walk's early stop.
func BenchmarkKernelPredict(b *testing.B) {
	data := dataset.Higgs(20000, 1)
	n, features := data.NumRecords(), data.NumFeatures()
	train := func(trees, depth int) (*forest.Forest, *kernel.Compiled) {
		f, err := forest.Train(dataset.Higgs(1500, 9), forest.ForestConfig{
			NumTrees:  trees,
			Tree:      forest.TrainConfig{MaxDepth: depth},
			Seed:      1,
			Bootstrap: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := f.Compile()
		if err != nil {
			b.Fatal(err)
		}
		return f, compiled
	}
	out := make([]int, n)
	dense := func(c *kernel.Compiled, rows, workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Predict(data.X, features, out[:rows], workers)
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		}
	}

	f, flat := train(32, 10)
	b.Run("flat-kernel-1th", dense(flat, n, 1))
	b.Run("flat-kernel-parallel", dense(flat, n, 0))
	b.Run("pointer-walk-1th", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				out[r] = f.PredictClass(data.Row(r))
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})

	_, fused := train(64, 10)
	eta := slices.Index(data.FeatureNames, "lepton_eta")
	where := kernel.BuildSelection(n, []kernel.Predicate{{Feature: eta, Op: kernel.PredGT}}, data.X, features)
	part := pipeline.Partition{Index: 0, Count: 2}
	sel := kernel.SelectionFromFunc(n, func(row int) bool { return where.Selected(row) && part.Keep(row) })
	counts := make([]int64, fused.NumClasses())
	for _, w := range []struct {
		name    string
		workers int
	}{{"fused-64x10-sel25-1th", 1}, {"fused-64x10-sel25-parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fused.PredictAggregate(data.X, features, n, sel, counts, w.workers)
			}
			b.ReportMetric(float64(sel.Count()*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}

	_, small := train(8, 6)
	b.Run("small-8x6", dense(small, 10000, 1))

	// Each tree is a chain: every split sends x[k%features] < -1.5 (about one
	// HIGGS value in fifteen) on down the chain and everything else to a leaf.
	skewed := kernel.New(2, false, 0)
	for t := 0; t < 16; t++ {
		skewed.BeginTree()
		parent := int32(-1)
		for k := 0; k < 24; k++ {
			split := skewed.EmitSplit(int32((t+k)%features), -1.5)
			if parent >= 0 {
				skewed.SetChildren(parent, split, skewed.EmitLeaf(int32(k%2), 0))
			}
			parent = split
		}
		skewed.SetChildren(parent, skewed.EmitLeaf(0, 0), skewed.EmitLeaf(1, 0))
	}
	if err := skewed.Seal(); err != nil {
		b.Fatal(err)
	}
	b.Run("skewed-16x24", dense(skewed, n, 1))
}

// BenchmarkKernelCompile measures the per-model lowering cost the cache
// amortizes away.
func BenchmarkKernelCompile(b *testing.B) {
	f, err := forest.Train(dataset.Higgs(1500, 9), forest.ForestConfig{
		NumTrees:  32,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalTraining measures forest induction cost.
func BenchmarkFunctionalTraining(b *testing.B) {
	data := dataset.Higgs(2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Train(data, forest.ForestConfig{
			NumTrees:  8,
			Tree:      forest.TrainConfig{MaxDepth: 8},
			Seed:      uint64(i),
			Bootstrap: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
