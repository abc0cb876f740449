package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"accelscore/internal/sim"
)

// TestRegistryTracerHammer drives the registry and tracer from many
// goroutines at once — instrument creation, updates, exposition, trace
// recording, ring eviction and export all interleaved. Run under -race in
// CI; correctness here is "no race, no panic, totals add up".
func TestRegistryTracerHammer(t *testing.T) {
	const (
		workers = 16
		iters   = 200
	)
	r := NewRegistry()
	tc := NewTracer(32)
	o := &Observer{Registry: r, Tracer: tc}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4)
			for i := 0; i < iters; i++ {
				r.Counter("hammer_events_total", "", "worker", label).Inc()
				// Fresh label value every iteration: guarantees family-map
				// inserts keep racing with concurrent WritePrometheus scrapes
				// for the whole run, not just the warm-up iterations.
				r.Counter("hammer_unique_total", "", "id", fmt.Sprintf("w%d_i%d", w, i)).Inc()
				r.Gauge("hammer_depth", "").Set(float64(i))
				r.Histogram("hammer_seconds", "", nil, "worker", label).Observe(float64(i) * 1e-5)

				tr := tc.Start("hammer")
				// Exemplars race exposition: every observation swaps the
				// bucket's exemplar pointer while scrapes render it.
				r.Histogram("hammer_exemplar_seconds", "", nil, "worker", label).
					ObserveExemplar(float64(i)*1e-5, tr.ID())
				end := tr.StartSpan("stage")
				tr.SetAttr("worker", label)
				var tl sim.Timeline
				tl.Add("compute", sim.KindCompute, time.Duration(i)*time.Microsecond)
				tr.AddTimeline("sim", &tl)
				end()
				// Measured stages land while other workers export the ring
				// and scrape: the Chrome export must snapshot their spans
				// under the trace lock, and the stage series must take
				// concurrent observations.
				if _, err := o.Stage(tr, "measured", func() error { return nil }); err != nil {
					t.Error(err)
					return
				}
				tr.Finish()

				if i%50 == 0 {
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
					_ = tc.Recent()
					if err := tc.WriteChromeTrace(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var total float64
	for _, l := range []string{"w0", "w1", "w2", "w3"} {
		total += r.Counter("hammer_events_total", "", "worker", l).Value()
	}
	if want := float64(workers * iters); total != want {
		t.Fatalf("counter total = %v, want %v", total, want)
	}
	var hcount uint64
	for _, l := range []string{"w0", "w1", "w2", "w3"} {
		hcount += r.Histogram("hammer_seconds", "", nil, "worker", l).Count()
	}
	if want := uint64(workers * iters); hcount != want {
		t.Fatalf("histogram count = %d, want %d", hcount, want)
	}
	if got := r.Histogram(MetricStageCPUSeconds, "", DefBuckets, "stage", "measured").Count(); got != workers*iters {
		t.Fatalf("stage observations = %d, want %d", got, workers*iters)
	}
	if tc.Len() != 32 {
		t.Fatalf("ring = %d, want 32", tc.Len())
	}
}
