package backend_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"accelscore/internal/backend"
	"accelscore/internal/dataset"
	"accelscore/internal/engines/cpuonnx"
	"accelscore/internal/engines/cpusk"
	"accelscore/internal/faults"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/kernel"
	"accelscore/internal/model"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

func TestRequestValidate(t *testing.T) {
	f, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 2, Tree: forest.TrainConfig{MaxDepth: 4}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := &backend.Request{Forest: f, Data: dataset.Iris()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&backend.Request{Data: dataset.Iris()}).Validate(); err == nil {
		t.Fatal("nil forest accepted")
	}
	if err := (&backend.Request{Forest: f}).Validate(); err == nil {
		t.Fatal("nil data accepted")
	}
	if err := (&backend.Request{Forest: f, Data: dataset.Higgs(5, 1)}).Validate(); err == nil {
		t.Fatal("feature mismatch accepted")
	}

	// A request carrying the compiled form keeps every per-query check; only
	// the walk over the forest — done when it was compiled — is not repeated.
	compiled, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cached := backend.Request{Forest: f, Data: dataset.Iris(), Compiled: compiled}
	if err := cached.Validate(); err != nil {
		t.Fatal(err)
	}
	mismatch := cached
	mismatch.Data = dataset.Higgs(5, 1)
	if err := mismatch.Validate(); err == nil {
		t.Fatal("feature mismatch accepted on a compiled request")
	}
	short := cached
	short.Sel = kernel.SelectionFromFunc(3, func(int) bool { return true })
	if err := short.Validate(); err == nil {
		t.Fatal("selection of the wrong length accepted on a compiled request")
	}
	noData := cached
	noData.Data = nil
	if err := noData.Validate(); err == nil {
		t.Fatal("nil data accepted on a compiled request")
	}
}

// corruptForests returns structurally broken copies of a two-node stump over
// IRIS, keyed by the validation error each must raise.
func corruptForests() map[string]*forest.Forest {
	stump := func(mutate func(root *forest.Node)) *forest.Forest {
		root := &forest.Node{Feature: 2, Threshold: 2.5,
			Left: &forest.Node{Class: 0}, Right: &forest.Node{Class: 1}}
		mutate(root)
		return &forest.Forest{NumFeatures: 4, NumClasses: 3,
			Trees: []*forest.Tree{{Root: root, NumFeatures: 4, NumClasses: 3}}}
	}
	return map[string]*forest.Forest{
		"split feature 9 out of range": stump(func(n *forest.Node) { n.Feature = 9 }),
		"single child":                 stump(func(n *forest.Node) { n.Right = nil }),
		"leaf class 7 out of range":    stump(func(n *forest.Node) { n.Left.Class = 7 }),
	}
}

// TestCorruptForestFailsScoreWithoutCompiled: a forest that reaches an
// engine without having been compiled into the model cache (the uncached
// pipeline, a direct caller) is still walked on every call, so structural
// corruption fails the query instead of reaching a traversal.
func TestCorruptForestFailsScoreWithoutCompiled(t *testing.T) {
	tb := platform.New()
	for want, f := range corruptForests() {
		if _, err := f.Compile(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Compile accepted a forest with %s (err = %v): it could enter the cache", want, err)
		}
		for _, b := range tb.AllBackends() {
			_, err := b.Score(&backend.Request{Forest: f, Data: dataset.Iris()})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: err = %v, want %q", b.Name(), err, want)
			}
		}
	}
}

// BenchmarkRequestValidate is the per-query validation charge on a 64-tree
// model: O(1) for a request out of the compiled-model cache, a walk over
// every node for one that arrives without the compiled form.
func BenchmarkRequestValidate(b *testing.B) {
	data := dataset.Higgs(256, 3)
	f, err := forest.Train(dataset.Higgs(1500, 9), forest.ForestConfig{
		NumTrees: 64, Tree: forest.TrainConfig{MaxDepth: 10}, Seed: 1, Bootstrap: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := f.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		req  *backend.Request
	}{
		{"cached", &backend.Request{Forest: f, Data: data, Compiled: compiled}},
		{"uncached", &backend.Request{Forest: f, Data: data}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.req.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestResultMetrics(t *testing.T) {
	r := &backend.Result{Predictions: make([]int, 1000)}
	r.Timeline.Add("scoring", sim.KindCompute, time.Second)
	if r.Latency() != time.Second {
		t.Fatalf("Latency = %v", r.Latency())
	}
	if r.Throughput() != 1000 {
		t.Fatalf("Throughput = %v", r.Throughput())
	}
}

func TestRegistry(t *testing.T) {
	tb := platform.New()
	reg := tb.Registry
	names := reg.Names()
	want := []string{"CPU_ONNX", "CPU_ONNX_52th", "CPU_SKLearn", "FPGA", "GPU_HB", "GPU_RAPIDS"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, ok := reg.Get("FPGA"); !ok {
		t.Fatal("FPGA not found")
	}
	if _, ok := reg.Get("TPU"); ok {
		t.Fatal("phantom backend found")
	}
	if err := reg.Register(tb.FPGA); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(nil); err == nil {
		t.Fatal("nil registration accepted")
	}
	if got := len(reg.Names()); got != 6 {
		t.Fatalf("Names() = %d backends", got)
	}
}

// TestAllBackendsAgree is the central functional-correctness property: every
// simulated backend — CPU traversal, ONNX interpretation, Hummingbird tensor
// program, RAPIDS FIL walk, FPGA PE array — must produce identical
// predictions for the same model.
func TestAllBackendsAgree(t *testing.T) {
	tb := platform.New()
	cases := []struct {
		name  string
		data  *dataset.Dataset
		trees int
		depth int
	}{
		{"iris-small", dataset.Iris().Replicate(120), 4, 6},
		{"iris-deep", dataset.Iris().Replicate(200), 8, 10},
		{"iris-shallow-gemm", dataset.Iris().Replicate(150), 6, 3},
		{"higgs", dataset.Higgs(400, 3), 8, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			train := tc.data
			if tc.name == "higgs" {
				train = dataset.Higgs(1500, 77)
			}
			f, err := forest.Train(train, forest.ForestConfig{
				NumTrees:  tc.trees,
				Tree:      forest.TrainConfig{MaxDepth: tc.depth},
				Seed:      42,
				Bootstrap: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			req := &backend.Request{Forest: f, Data: tc.data}
			reference := f.PredictBatch(tc.data)
			for _, b := range tb.AllBackends() {
				if b.Name() == "GPU_RAPIDS" && f.NumClasses > 2 {
					continue // FIL is binary-only, as in the paper
				}
				res, err := b.Score(req)
				if err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				if len(res.Predictions) != len(reference) {
					t.Fatalf("%s: %d predictions, want %d", b.Name(), len(res.Predictions), len(reference))
				}
				for i := range reference {
					if res.Predictions[i] != reference[i] {
						t.Fatalf("%s disagrees with reference at record %d: %d != %d",
							b.Name(), i, res.Predictions[i], reference[i])
					}
				}
			}
		})
	}
}

// TestLatencyOrderingAtExtremes pins the Fig. 9 ordering at both ends of the
// record-count axis using simulated timelines from real Score calls.
func TestLatencyOrderingAtExtremes(t *testing.T) {
	tb := platform.New()
	f, err := forest.Train(dataset.Higgs(1200, 5), forest.ForestConfig{
		NumTrees:  8,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      7,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := f.ComputeStats()

	latency := func(b backend.Backend, n int64) time.Duration {
		tl, err := b.Estimate(stats, n)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		return tl.Total()
	}
	// One record: single-thread ONNX is fastest of all backends.
	onnx1 := latency(tb.ONNX1, 1)
	for _, b := range tb.AllBackends() {
		if b.Name() == "CPU_ONNX" {
			continue
		}
		if latency(b, 1) <= onnx1 {
			t.Fatalf("%s beats CPU_ONNX at 1 record", b.Name())
		}
	}
	// One million records of this 8-tree model: accelerators beat every
	// CPU engine.
	slowestAccel := time.Duration(0)
	for _, b := range tb.AcceleratorBackends() {
		if l := latency(b, 1_000_000); l > slowestAccel {
			slowestAccel = l
		}
	}
	for _, b := range tb.CPUBackends() {
		if latency(b, 1_000_000) <= slowestAccel {
			t.Fatalf("%s beats an accelerator at 1M records of a deep 8-tree model", b.Name())
		}
	}
}

// TestBoostedModelAcrossBackends: gradient-boosted ensembles (§III-A) score
// identically on the CPU engines, Hummingbird and RAPIDS; the FPGA's
// majority-vote unit rejects them.
func TestBoostedModelAcrossBackends(t *testing.T) {
	tb := platform.New()
	train := dataset.Higgs(2000, 31)
	f, err := forest.TrainBoosted(train, forest.BoostConfig{
		NumTrees: 12, MaxDepth: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.Higgs(400, 32)
	req := &backend.Request{Forest: f, Data: data}
	reference := f.PredictBatch(data)

	for _, b := range tb.AllBackends() {
		res, err := b.Score(req)
		if b.Name() == "FPGA" {
			if err == nil {
				t.Fatal("FPGA accepted a boosted ensemble")
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s rejected boosted model: %v", b.Name(), err)
		}
		for i := range reference {
			if res.Predictions[i] != reference[i] {
				t.Fatalf("%s disagrees on boosted record %d", b.Name(), i)
			}
		}
	}

	// Round-trips through the RFX blob with BaseScore intact.
	blob, err := model.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := model.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != forest.Boosted || back.BaseScore != f.BaseScore {
		t.Fatalf("boosted round-trip lost kind/base: %v %v", back.Kind, back.BaseScore)
	}
	for i := range reference {
		if back.PredictClass(data.Row(i)) != reference[i] {
			t.Fatalf("serialized boosted model disagrees at %d", i)
		}
	}
}

// TestBackendsAgreeOnRandomModels is the property-based version of
// TestAllBackendsAgree: random dataset seeds, ensemble sizes and depths.
func TestBackendsAgreeOnRandomModels(t *testing.T) {
	tb := platform.New()
	check := func(seed uint16, treesRaw, depthRaw uint8) bool {
		trees := int(treesRaw)%8 + 1
		depth := int(depthRaw)%9 + 2
		train := dataset.Higgs(600, uint64(seed)+100)
		data := dataset.Higgs(150, uint64(seed)+500)
		f, err := forest.Train(train, forest.ForestConfig{
			NumTrees:  trees,
			Tree:      forest.TrainConfig{MaxDepth: depth},
			Seed:      uint64(seed),
			Bootstrap: true,
		})
		if err != nil {
			return false
		}
		req := &backend.Request{Forest: f, Data: data}
		reference := f.PredictBatch(data)
		for _, b := range tb.AllBackends() {
			res, err := b.Score(req)
			if err != nil {
				t.Logf("%s: %v", b.Name(), err)
				return false
			}
			for i := range reference {
				if res.Predictions[i] != reference[i] {
					t.Logf("%s diverges at %d (seed=%d trees=%d depth=%d)",
						b.Name(), i, seed, trees, depth)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainedStatsTrackSynthetic: figure sweeps use synthetic full-depth
// stats; real trained models have shorter average paths, so their simulated
// times must be bounded by (and within ~3x of) the synthetic estimate for
// the visit-proportional backends.
func TestTrainedStatsTrackSynthetic(t *testing.T) {
	tb := platform.New()
	train := dataset.Higgs(4000, 55)
	f, err := forest.Train(train, forest.ForestConfig{
		NumTrees:  64,
		Tree:      forest.TrainConfig{MaxDepth: 10},
		Seed:      1,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	real := f.ComputeStats()
	synth := forest.SyntheticStats(64, 10, 28, 2)
	if real.AvgPathLength > float64(synth.MaxDepth) {
		t.Fatalf("trained avg path %v exceeds depth", real.AvgPathLength)
	}
	for _, b := range tb.AllBackends() {
		realTl, err := b.Estimate(real, 1_000_000)
		if err != nil {
			continue
		}
		synthTl, err := b.Estimate(synth, 1_000_000)
		if err != nil {
			continue
		}
		ratio := float64(synthTl.Total()) / float64(realTl.Total())
		if ratio < 0.99 || ratio > 3 {
			t.Fatalf("%s: synthetic %v vs trained %v (ratio %.2f)",
				b.Name(), synthTl.Total(), realTl.Total(), ratio)
		}
	}
}

// TestZeroRecordRequests: every backend must handle an empty batch
// gracefully — zero predictions, overhead-only timeline.
func TestZeroRecordRequests(t *testing.T) {
	tb := platform.New()
	f, err := forest.Train(dataset.Higgs(500, 61), forest.ForestConfig{
		NumTrees: 4, Tree: forest.TrainConfig{MaxDepth: 6}, Seed: 1, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := dataset.Higgs(0, 1)
	for _, b := range tb.AllBackends() {
		res, err := b.Score(&backend.Request{Forest: f, Data: empty})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if len(res.Predictions) != 0 {
			t.Fatalf("%s produced %d predictions for empty batch", b.Name(), len(res.Predictions))
		}
		if res.Latency() <= 0 {
			t.Fatalf("%s: empty batch should still pay invocation overhead", b.Name())
		}
		est, err := b.Estimate(f.ComputeStats(), 0)
		if err != nil {
			t.Fatalf("%s Estimate(0): %v", b.Name(), err)
		}
		if est.Total() != res.Latency() {
			t.Fatalf("%s: Estimate(0) %v != Score latency %v", b.Name(), est.Total(), res.Latency())
		}
	}
}

// TestCPUEnginesShareOneScoringPath drives both CPU engines through
// Request.ScoreKernel for every query shape — dense, filtered, aggregate,
// filtered aggregate — with and without the pre-compiled form, on a vote
// forest and a boosted ensemble: the functional result is the pointer-walk
// oracle's on both, identical across the two, and the only thing that
// differs between the engines is the simulated timeline, which is each
// engine's own Estimate and nothing else. A fault injected at the invoke or
// the compute boundary fails both the same way.
func TestCPUEnginesShareOneScoringPath(t *testing.T) {
	type engine interface {
		backend.Backend
		Threads() int
	}
	engines := []engine{cpusk.New(hw.DefaultCPU(), 4), cpuonnx.New(hw.DefaultCPU(), 1)}

	vote, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 6, Tree: forest.TrainConfig{MaxDepth: 8}, Seed: 3, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	higgs := dataset.Higgs(330, 5)
	boosted, err := forest.TrainBoosted(higgs, forest.BoostConfig{NumTrees: 6, MaxDepth: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		f    *forest.Forest
		data *dataset.Dataset
	}{
		{"vote", vote, dataset.Iris().Replicate(330)},
		{"boosted", boosted, higgs},
	} {
		n := m.data.NumRecords()
		compiled, err := m.f.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sel := kernel.SelectionFromFunc(n, func(r int) bool { return r%3 == 0 && r/64 != 2 })
		for _, shape := range []struct {
			name   string
			sel    *kernel.Selection
			counts bool
		}{
			{"dense", nil, false},
			{"sel", sel, false},
			{"counts", nil, true},
			{"sel+counts", sel, true},
		} {
			// The oracle: the forest's pointer walk over the rows the query
			// selects.
			var wantPreds []int
			wantCounts := make([]int64, max(m.f.NumClasses, 2))
			for i := 0; i < n; i++ {
				if shape.sel == nil || shape.sel.Selected(i) {
					p := m.f.PredictClass(m.data.Row(i))
					wantPreds = append(wantPreds, p)
					wantCounts[p]++
				}
			}
			for _, pre := range []*kernel.Compiled{nil, compiled} {
				where := fmt.Sprintf("%s/%s/compiled=%v", m.name, shape.name, pre != nil)
				newReq := func(inject *faults.Injector) *backend.Request {
					return &backend.Request{
						Forest: m.f, Data: m.data, Compiled: pre,
						Sel: shape.sel, WantCounts: shape.counts, Inject: inject,
					}
				}
				for _, e := range engines {
					res, err := e.Score(newReq(nil))
					if err != nil {
						t.Fatalf("%s on %s: %v", where, e.Name(), err)
					}
					if shape.counts {
						if res.Predictions != nil || !reflect.DeepEqual(res.ClassCounts, wantCounts) {
							t.Fatalf("%s on %s: counts %v (predictions %d), want %v and none",
								where, e.Name(), res.ClassCounts, len(res.Predictions), wantCounts)
						}
					} else if res.ClassCounts != nil || !reflect.DeepEqual(res.Predictions, wantPreds) {
						t.Fatalf("%s on %s: predictions differ from the pointer walk", where, e.Name())
					}
					if res.NumScored() != len(wantPreds) {
						t.Fatalf("%s on %s: NumScored %d, want %d", where, e.Name(), res.NumScored(), len(wantPreds))
					}
					// The engine adds its Estimate to the helper's result and
					// nothing else.
					bare, err := newReq(nil).ScoreKernel(e.Name(), e.Threads())
					if err != nil {
						t.Fatal(err)
					}
					if len(bare.Timeline.Spans()) != 0 {
						t.Fatalf("%s: ScoreKernel charged simulated time: %v", where, bare.Timeline.Spans())
					}
					if !reflect.DeepEqual(bare.Predictions, res.Predictions) || !reflect.DeepEqual(bare.ClassCounts, res.ClassCounts) {
						t.Fatalf("%s on %s: Score and ScoreKernel disagree", where, e.Name())
					}
					est, err := e.Estimate(m.f.ComputeStats(), int64(len(wantPreds)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Timeline.Spans(), est.Spans()) {
						t.Fatalf("%s on %s: timeline %v, want the engine's Estimate %v",
							where, e.Name(), res.Timeline.Spans(), est.Spans())
					}

					for _, b := range []faults.Boundary{faults.BoundaryInvoke, faults.BoundaryCompute} {
						inject, err := faults.NewInjector(1, []faults.Rule{{Backend: e.Name(), Boundary: b, Kind: faults.KindCrash}})
						if err != nil {
							t.Fatal(err)
						}
						res, err := e.Score(newReq(inject))
						if res != nil || !errors.Is(err, faults.ErrInvokeCrash) {
							t.Fatalf("%s on %s: fault at %s gave (%v, %v), want the injected crash", where, e.Name(), b, res, err)
						}
						if ev := inject.Events(); len(ev) != 1 || ev[0].Boundary != b {
							t.Fatalf("%s on %s: fault at %s fired as %+v", where, e.Name(), b, ev)
						}
					}
				}
			}
		}
	}
}
