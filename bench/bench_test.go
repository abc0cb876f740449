package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"accelscore/internal/obs"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	got, err := percentile(sorted, 0.95)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 (ten samples beyond)", got, err)
	}
	if _, err := percentile(sorted[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.95); err == nil {
		t.Fatal("p95 of no samples must be refused")
	}
}

func TestSliceStatsMedianShrugsOffOneBadSlice(t *testing.T) {
	const slice = time.Second
	var samples []sample
	add := func(sliceIdx, n int, latency time.Duration) {
		for i := 0; i < n; i++ {
			done := time.Duration(sliceIdx)*slice + time.Duration(i+1)*time.Millisecond
			samples = append(samples, sample{done: done, latency: latency})
		}
	}
	add(0, 10, 10*time.Millisecond)
	add(1, 2, 90*time.Millisecond) // a neighbour's burst
	add(2, 10, 10*time.Millisecond)
	samples = append(samples, sample{done: 3 * slice, latency: time.Hour}) // past the window
	qps, p50 := sliceStats(samples, slice, 3)
	if want := []float64{10, 2, 10}; !reflect.DeepEqual(qps, want) {
		t.Errorf("slice qps = %v, want %v", qps, want)
	}
	if want := []float64{10, 90, 10}; !reflect.DeepEqual(p50, want) {
		t.Errorf("slice p50 = %v, want %v", p50, want)
	}
	if median(qps) != 10 || median(p50) != 10 {
		t.Errorf("medians %v, %v: the bad slice leaked through", median(qps), median(p50))
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestPromDeltaOverRegistryOutput(t *testing.T) {
	reg := obs.NewRegistry()
	scrape := func() promSeries {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		s, err := parseProm(sb.String())
		if err != nil {
			t.Fatalf("parsing the registry's own output: %v", err)
		}
		return s
	}
	hits := reg.Counter("accelscore_model_cache_events_total", "Cache events.", "event", "hit")
	cpu := reg.Histogram("accelscore_stage_cpu_seconds", "Stage CPU.", nil, "stage", "model scoring")
	tricky := reg.Counter("tricky_total", "Label value with a brace and a quote.", "v", `a} "b`)
	hits.Add(3)
	cpu.ObserveExemplar(0.5, "q-000001") // exemplar suffix on the bucket lines
	tricky.Inc()
	before := scrape()
	hits.Add(4)
	cpu.Observe(0.25)
	cpu.Observe(0.75)
	reg.Counter("accelscore_queries_total", "Born inside the window.", "status", "ok").Add(2)
	delta := scrape().sub(before)

	if got := delta[`accelscore_model_cache_events_total{event="hit"}`]; got != 4 {
		t.Errorf("counter delta = %v, want 4", got)
	}
	if got := delta[`accelscore_queries_total{status="ok"}`]; got != 2 {
		t.Errorf("a series absent before the window must count from zero, got %v", got)
	}
	if got := delta.mean(`accelscore_stage_cpu_seconds{stage="model scoring"}`); got != 0.5 {
		t.Errorf("histogram mean over the window = %v, want 0.5", got)
	}
	if got := before[`tricky_total{v="a} \"b"}`]; got != 1 {
		t.Errorf("escaped label value parsed to %v, want 1 (have %v)", got, before)
	}
	sum := promSeries{}
	sum.add(delta)
	sum.add(delta)
	if got := sum[`accelscore_model_cache_events_total{event="hit"}`]; got != 8 {
		t.Errorf("summing two shards' deltas = %v, want 8", got)
	}
	if _, err := parseProm("name_without_value\n"); err == nil {
		t.Error("a line without a value must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// Field 2 holds spaces and a ')'; utime=250 stime=50 (fields 14, 15), rss=1234 (field 24).
	line := "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 2000000000 1234 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.cpuTicks != 300 || st.rssPages != 1234 {
		t.Errorf("got %+v, want cpuTicks 300 rssPages 1234", st)
	}
	if st.cpu() != 3*time.Second {
		t.Errorf("300 ticks = %v, want 3s", st.cpu())
	}
	if _, err := parseProcStat("4242 (serve) S 1 2 3"); err == nil {
		t.Error("a truncated line must be an error")
	}
}

func TestScheduleIsReproducible(t *testing.T) {
	a, b := makeSchedule(7, 200*time.Millisecond), makeSchedule(7, 200*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same @limit draws and INSERT statements")
	}
	c := makeSchedule(8, 200*time.Millisecond)
	if reflect.DeepEqual(a.limits, c.limits) || a.inserts[0][0] == c.inserts[0][0] {
		t.Fatal("another seed must give another schedule")
	}
	if a.inserts[0][0] == a.inserts[1][0] {
		t.Fatal("the two ingest clients must insert different rows")
	}
	if got := strings.Count(a.inserts[0][0], "("); got != insertRowsPerStmt {
		t.Fatalf("an INSERT carries %d rows, want %d", got, insertRowsPerStmt)
	}
}

// A tier that returns one wrong class must fail verification, be counted as
// a failed operation, and turn the run's exit code non-zero.
func TestOneFlippedPredictionFailsTheRun(t *testing.T) {
	want := []int{0, 1, 2, 1, 0, 2}
	run := func(reply []int) *result {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{"ok": true, "predictions": reply})
		}))
		defer srv.Close()
		w, _ := findWorkload("scan_plain")
		c := &client{w: w, http: srv.Client(), fleet: &fleet{router: &proc{url: srv.URL}}, orc: &oracle{scan: want}}
		runPhase(context.Background(), []*client{c}, 20*time.Millisecond, true)
		res, _ := tally(w, 1, []*client{c})
		return res
	}
	if res := run(want); !res.Correct || res.Failed != 0 || res.exitCode() != 0 {
		t.Fatalf("a faithful tier must pass: %+v", res)
	}
	flipped := append([]int(nil), want...)
	flipped[3] = 2
	res := run(flipped)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted || res.exitCode() == 0 {
		t.Fatalf("one flipped prediction must fail the run: %+v", res)
	}
	if !strings.Contains(res.Error, "row 3") {
		t.Errorf("the error should name the row: %q", res.Error)
	}
	if err := verifyCounts(&queryResponse{OK: true, ClassCounts: []int64{5, 4}}, []int64{5, 5}); err == nil {
		t.Error("a wrong class count must fail verification")
	}
	if err := verifyPredictions(&queryResponse{OK: true, Partial: true, Predictions: want}, want); err == nil {
		t.Error("a partial result must fail verification even when its rows agree")
	}
}

func TestRatioOfIdleLayerIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
}
