package pipeline_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

const obsQuery = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"

// TestObserverPublishesQueryMetrics runs real queries through an observed
// pipeline and checks every metric family the dashboard scrapes: query
// counters, per-stage and per-backend latency histograms, selection and
// cache counters — all present in valid Prometheus exposition.
func TestObserverPublishesQueryMetrics(t *testing.T) {
	p, _, _ := newPipeline(t, 8, 8, 200)
	p.Cache = pipeline.NewModelCache(4)
	o := obs.NewObserver()
	p.Obs = o

	for i := 0; i < 3; i++ {
		if _, err := p.ExecQuery(obsQuery); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ExecQuery("EXEC sp_score_model @model='missing', @data='iris'"); err == nil {
		t.Fatal("query against missing model succeeded")
	}
	// The query that failed before any stage ran has a trace like the rest.
	if got := o.Tracer.Len(); got != 4 {
		t.Errorf("tracer holds %d traces, want 4", got)
	}

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, needle := range []string{
		pipeline.MetricQueriesTotal + `{status="ok"} 3`,
		pipeline.MetricQueriesTotal + `{status="error"} 1`,
		pipeline.MetricStatementsTotal + `{kind="exec"} 4`,
		pipeline.MetricStageSimSeconds + `_count{stage="model scoring"} 3`,
		pipeline.MetricStageSimSeconds + `_count{stage="model pre-processing"} 3`,
		pipeline.MetricBackendSimSeconds + `_count{backend="CPU_SKLearn"} 3`,
		pipeline.MetricBackendSelectedTotal + `{backend="CPU_SKLearn",source="param"} 3`,
		pipeline.MetricModelCacheEventsTotal + `{event="miss"} 1`,
		pipeline.MetricModelCacheEventsTotal + `{event="hit"} 2`,
		// The iris table is the model's own columns: all three are views.
		pipeline.MetricSnapshotCacheEventsTotal + `{event="hit"} 3`,
		pipeline.MetricModelCacheEntries + " 1",
		pipeline.MetricQueryWallSeconds + "_count 3",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}
	// O/L/C taxonomy counters: the CPU engine has overhead and compute.
	if !strings.Contains(text, pipeline.MetricOLCSimSecondsTotal+`{backend="CPU_SKLearn",kind="compute"}`) {
		t.Error("exposition missing O/L/C compute counter")
	}
}

// TestAdvisorDecisionCounters routes a query through @backend='auto' and
// expects advisor-decision and source="advisor" selection counters.
func TestAdvisorDecisionCounters(t *testing.T) {
	p, _, _ := newPipeline(t, 8, 8, 200)
	o := obs.NewObserver()
	p.Obs = o
	res, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='auto'")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, pipeline.MetricAdvisorDecisionsTotal+`{backend="`+res.Backend+`"} 1`) {
		t.Errorf("missing advisor decision counter for %s in:\n%s", res.Backend, text)
	}
	if !strings.Contains(text, pipeline.MetricBackendSelectedTotal+`{backend="`+res.Backend+`",source="advisor"} 1`) {
		t.Error("missing source=advisor selection counter")
	}
}

// TestQueryTraceMatchesTimeline is the acceptance check: a recorded query
// trace round-trips as valid Chrome trace-event JSON and its simulated span
// structure matches the query's sim.Timeline stages one for one.
func TestQueryTraceMatchesTimeline(t *testing.T) {
	p, _, _ := newPipeline(t, 8, 8, 200)
	o := obs.NewObserver()
	p.Obs = o
	res, err := p.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("query has no trace id")
	}
	tr, ok := o.Tracer.Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}

	// Locate the Fig. 11 track and compare span for span with the result's
	// timeline: same names, same O/L/C/pipeline categories, same durations,
	// sequential layout.
	simTID := -1
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "simulated end-to-end (Fig. 11)" {
			simTID = ev.TID
		}
	}
	if simTID < 0 {
		t.Fatal("trace has no Fig. 11 track")
	}
	spans := res.Timeline.Spans()
	idx := 0
	var cursor time.Duration // accumulate in duration space, like the exporter
	for _, ev := range file.TraceEvents {
		if ev.TID != simTID || ev.Ph != "X" {
			continue
		}
		if idx >= len(spans) {
			t.Fatalf("trace has more spans than the timeline's %d", len(spans))
		}
		want := spans[idx]
		if ev.Name != want.Name || ev.Cat != want.Kind.String() {
			t.Errorf("span %d = %q/%q, want %q/%q", idx, ev.Name, ev.Cat, want.Name, want.Kind.String())
		}
		if wantDur := float64(want.Duration.Nanoseconds()) / 1e3; ev.Dur != wantDur {
			t.Errorf("span %d dur = %v µs, want %v µs", idx, ev.Dur, wantDur)
		}
		if wantTS := float64(cursor.Nanoseconds()) / 1e3; ev.TS != wantTS {
			t.Errorf("span %d ts = %v, want %v", idx, ev.TS, wantTS)
		}
		cursor += want.Duration
		idx++
	}
	if idx != len(spans) {
		t.Fatalf("trace track has %d spans, timeline has %d", idx, len(spans))
	}

	// The backend attr and a measured wall span must be present too.
	foundAttr, foundWall := false, false
	for _, ev := range file.TraceEvents {
		if ev.Ph == "i" && ev.Args["backend"] == res.Backend {
			foundAttr = true
		}
		if ev.Ph == "X" && ev.Cat == "wall" && ev.Name == pipeline.StageModelScoring {
			foundWall = true
		}
	}
	if !foundAttr {
		t.Error("trace missing backend attribute")
	}
	if !foundWall {
		t.Error("trace missing measured scoring span")
	}
}

// TestErrorQueriesAreTracedAndCounted checks the error path: failing scoring
// queries finish their trace with an error attribute.
func TestErrorQueriesAreTracedAndCounted(t *testing.T) {
	p, _, _ := newPipeline(t, 8, 8, 100)
	o := obs.NewObserver()
	p.Obs = o
	_, err := p.ExecQuery("EXEC sp_score_model @model='iris_rf', @data='iris', @backend='NoSuchEngine'")
	if err == nil {
		t.Fatal("unknown backend succeeded")
	}
	recent := o.Tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("traces = %d, want 1", len(recent))
	}
	snap := recent[0].Snapshot()
	if !snap.Done {
		t.Error("error trace not finished")
	}
	if snap.Attrs["error"] == "" {
		t.Error("error trace has no error attribute")
	}
}

// TestNoObserverIsZeroOverheadPath ensures an unobserved pipeline still
// works and produces no trace id.
func TestNoObserverIsZeroOverheadPath(t *testing.T) {
	p, _, _ := newPipeline(t, 4, 6, 100)
	res, err := p.ExecQuery(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Fatalf("unobserved query has trace id %q", res.TraceID)
	}
}
