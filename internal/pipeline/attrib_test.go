package pipeline_test

import (
	"strings"
	"testing"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// attribStages is the canonical attribution order every scored query reports.
var attribStages = []string{
	pipeline.StageTransferIn,
	pipeline.StageModelPreproc,
	pipeline.StageModelScoring,
	pipeline.StagePostprocessing,
	pipeline.StageTransferOut,
}

// TestAttributionOnSeededQuery is the acceptance check: with attribution on,
// a seeded query reports per-stage CPU/alloc/bytes-moved costs on the
// result, on the retained trace, and in the stage metrics.
func TestAttributionOnSeededQuery(t *testing.T) {
	// 8192 rows make the scoring stage's output buffer a large (> 32 KiB)
	// allocation, which the runtime's allocation counter sees at once; a
	// small one only shows when its P next refills a span, and at 200 rows
	// the "scoring allocates" check below failed about one run in fifty.
	p, _, _ := newPipeline(t, 8, 8, 8192)
	o := obs.NewObserver()
	o.Attribution = true
	p.Obs = o

	res, err := p.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attribution) != len(attribStages) {
		t.Fatalf("attribution has %d stages, want %d: %+v", len(res.Attribution), len(attribStages), res.Attribution)
	}
	for i, want := range attribStages {
		if res.Attribution[i].Stage != want {
			t.Errorf("stage %d = %q, want %q", i, res.Attribution[i].Stage, want)
		}
	}
	if res.Attribution[0].BytesMoved <= 0 || res.Attribution[4].BytesMoved <= 0 {
		t.Errorf("transfer legs report no bytes: in=%d out=%d",
			res.Attribution[0].BytesMoved, res.Attribution[4].BytesMoved)
	}
	// Scoring allocates (the output buffer at minimum), and totals add up.
	if res.Attribution[2].AllocBytes <= 0 {
		t.Errorf("scoring stage reports no allocation: %+v", res.Attribution[2])
	}
	tot := res.Attribution.Total()
	if tot.BytesMoved != res.Attribution[0].BytesMoved+res.Attribution[4].BytesMoved {
		t.Errorf("total bytes moved %d != sum of legs", tot.BytesMoved)
	}

	// The trace carries the same costs and they surface as Chrome args.
	tr, ok := o.Tracer.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	snap := tr.Snapshot()
	if len(snap.Costs) != len(attribStages) {
		t.Fatalf("trace costs = %+v", snap.Costs)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cpu_us"`, `"alloc_bytes"`, `"alloc_objects"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("chrome export missing %s arg", want)
		}
	}

	// Stage metrics: per-stage CPU histograms, alloc counters, transfer
	// counters in both directions.
	var expo strings.Builder
	if err := o.Registry.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	for _, needle := range []string{
		pipeline.MetricStageCPUSeconds + `_count{stage="model scoring"} 1`,
		pipeline.MetricStageAllocBytesTotal + `{stage="model scoring"}`,
		pipeline.MetricTransferBytesTotal + `{direction="in"}`,
		pipeline.MetricTransferBytesTotal + `{direction="out"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}
}

// TestAttributionOffLeavesResultClean: attribution is opt-in — a default
// observer and an unobserved pipeline both skip the cost sampling entirely.
func TestAttributionOffLeavesResultClean(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 6, 100)
	p.Obs = obs.NewObserver() // Attribution defaults to false
	res, err := p.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Fatalf("attribution recorded without opt-in: %+v", res.Attribution)
	}

	p2, _, _ := newPipeline(t, 4, 6, 100)
	res2, err := p2.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Attribution != nil {
		t.Fatalf("unobserved pipeline recorded attribution: %+v", res2.Attribution)
	}
}

// TestAttributionPredictionsBitIdentical is the conformance criterion:
// enabling attribution must never change a prediction.
func TestAttributionPredictionsBitIdentical(t *testing.T) {
	pOn, _, _ := newPipeline(t, 16, 10, 300)
	o := obs.NewObserver()
	o.Attribution = true
	pOn.Obs = o
	pOff, _, _ := newPipeline(t, 16, 10, 300)

	on, err := pOn.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	off, err := pOff.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Predictions) != len(off.Predictions) || len(on.Predictions) == 0 {
		t.Fatalf("prediction counts: %d vs %d", len(on.Predictions), len(off.Predictions))
	}
	for i := range on.Predictions {
		if on.Predictions[i] != off.Predictions[i] {
			t.Fatalf("prediction %d: %d with attribution, %d without", i, on.Predictions[i], off.Predictions[i])
		}
	}
}
