package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStartSpanOnTracks(t *testing.T) {
	tracer := NewTracer(4)
	tr := tracer.Start("scatter")
	tr.AddTimeline("sim", sampleTimeline())
	done0 := tr.StartSpanOn("shard 0", "sub-query")
	done1 := tr.StartSpanOn("shard 1", "sub-query")
	done1()
	done0()
	tr.StartSpan("merge")()
	tr.Finish()

	snap := tr.Snapshot()
	tracks := make(map[string]int)
	for _, w := range snap.WallSpans {
		tracks[w.Track]++
	}
	if tracks["shard 0"] != 1 || tracks["shard 1"] != 1 || tracks[""] != 1 {
		t.Fatalf("track spans = %v", tracks)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	tidByTrack := make(map[string]int)
	for _, ev := range ct.TraceEvents {
		if ev.Name == "thread_name" && ev.Ph == "M" {
			tidByTrack[ev.Args["name"]] = ev.TID
		}
	}
	for _, name := range []string{"wall clock", "sim", "shard 0", "shard 1"} {
		if _, ok := tidByTrack[name]; !ok {
			t.Fatalf("no lane %q in export (lanes: %v)", name, tidByTrack)
		}
	}
	if tidByTrack["shard 0"] == tidByTrack["shard 1"] ||
		tidByTrack["shard 0"] <= tidByTrack["sim"] {
		t.Fatalf("shard lanes misplaced: %v", tidByTrack)
	}
	// The per-shard sub-query spans must land on their own lanes.
	subTIDs := make(map[int]int)
	for _, ev := range ct.TraceEvents {
		if ev.Name == "sub-query" && ev.Ph == "X" {
			subTIDs[ev.TID]++
		}
	}
	if len(subTIDs) != 2 {
		t.Fatalf("sub-query spans on %d lanes, want 2", len(subTIDs))
	}
}

func TestRouterMetrics(t *testing.T) {
	reg := NewRegistry()
	m := NewRouterMetrics(reg)
	m.ObserveQuery("ok", 4, 3*time.Millisecond)
	m.ObserveQuery("error", 4, 40*time.Millisecond)
	m.ObserveShard(2, 10*time.Millisecond, 0)
	m.ObserveShard(0, 25*time.Millisecond, 1)
	m.SetPredictedQuery(75 * time.Millisecond)
	m.NoteWarm("hit")
	m.SetShardState(1, 2)
	m.NoteAdmissionShed("batch")
	m.NoteAdmissionShed("") // empty class normalizes to "default"
	m.ObserveWire(25000, 200*time.Microsecond)
	m.ObserveWire(95000, 4*time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`accelscore_router_queries_total{outcome="ok"} 1`,
		`accelscore_router_queries_total{outcome="error"} 1`,
		`accelscore_router_scatter_width_count 2`,
		`accelscore_router_straggler_gap_seconds_count 2`,
		`accelscore_router_shard_latency_seconds_count{shard="0"} 1`,
		`accelscore_router_reroutes_total{shard="0"} 1`,
		`accelscore_router_predicted_query_seconds 0.075`,
		`accelscore_router_warm_total{status="hit"} 1`,
		`accelscore_router_shard_state{shard="1"} 2`,
		`accelscore_router_admission_shed_total{class="batch"} 1`,
		`accelscore_router_admission_shed_total{class="default"} 1`,
		"accelscore_router_wire_bytes_total 120000\n",
		`accelscore_router_wire_decode_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	if strings.Contains(out, `accelscore_router_reroutes_total{shard="2"}`) {
		t.Fatal("zero-reroute shard got a reroute counter")
	}
	if probs := LintPrometheus(strings.NewReader(out)); len(probs) > 0 {
		t.Fatalf("router exposition fails the linter: %v", probs)
	}

	// Nil receiver and nil registry are no-ops.
	var nilM *RouterMetrics
	nilM.ObserveQuery("ok", 1, 0)
	nilM.ObserveShard(0, 0, 0)
	nilM.SetPredictedQuery(0)
	nilM.NoteWarm("hit")
	nilM.SetShardState(0, 0)
	nilM.NoteAdmissionShed("batch")
	nilM.ObserveWire(1, 0)
	if NewRouterMetrics(nil) != nil {
		t.Fatal("NewRouterMetrics(nil) not nil")
	}
}
