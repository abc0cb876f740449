package pipeline_test

import (
	"slices"
	"strconv"
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

// TestAttributionOnSeededQuery is the acceptance check: an observed seeded
// query reports per-stage CPU/alloc/bytes-moved costs on the result, on the
// retained trace's measured spans, and in the stage metrics.
func TestAttributionOnSeededQuery(t *testing.T) {
	// 8192 rows make the scoring stage's output buffer a large (> 32 KiB)
	// allocation, which the runtime's allocation counter sees at once; a
	// small one only shows when its P next refills a span, and at 200 rows
	// the "scoring allocates" check below failed about one run in fifty.
	p, _, _ := newPipeline(t, 8, 8, 8192)
	o := obs.NewObserver()
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

	// The trace's measured spans are the three measured rows, the transfer
	// legs are its attrs, and the costs surface as Chrome args.
	tr, ok := o.Tracer.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	snap := tr.Snapshot()
	var measured obs.Attribution
	for _, w := range snap.WallSpans {
		if w.Cost.Stage != "" {
			measured = append(measured, w.Cost)
		}
	}
	if !slices.Equal(measured, res.Attribution[1:4]) {
		t.Fatalf("trace's measured spans = %+v, result rows = %+v", measured, res.Attribution[1:4])
	}
	if snap.Attrs["transfer_in_bytes"] != strconv.FormatInt(res.Attribution[0].BytesMoved, 10) ||
		snap.Attrs["transfer_out_bytes"] != strconv.FormatInt(res.Attribution[4].BytesMoved, 10) {
		t.Errorf("trace attrs = %v, want the transfer legs' bytes", snap.Attrs)
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
		obs.MetricStageCPUSeconds + `_count{stage="model scoring"} 1`,
		obs.MetricStageAllocBytesTotal + `{stage="model scoring"}`,
		pipeline.MetricTransferBytesTotal + `{direction="in"}`,
		pipeline.MetricTransferBytesTotal + `{direction="out"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}
}

// TestAttributionOffLeavesResultClean: an unobserved pipeline skips the cost
// sampling entirely.
func TestAttributionOffLeavesResultClean(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 6, 100)
	res, err := p.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Fatalf("unobserved pipeline recorded attribution: %+v", res.Attribution)
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
