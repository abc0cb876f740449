package sched_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"accelscore/internal/forest"
	"accelscore/internal/platform"
	"accelscore/internal/sched"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := sched.DefaultWorkload(200, 7)
	a, err := sched.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams differ at %d", i)
		}
	}
	cfg.Seed = 8
	c, _ := sched.Generate(cfg)
	same := 0
	for i := range a {
		if a[i].Records == c[i].Records {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical record counts")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := sched.DefaultWorkload(500, 1)
	qs, err := sched.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	sawSmall, sawLarge := false, false
	for _, q := range qs {
		if q.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = q.Arrival
		if q.Records < cfg.MinRecords || q.Records > cfg.MaxRecords {
			t.Fatalf("record count %d out of bounds", q.Records)
		}
		if q.Records < 100 {
			sawSmall = true
		}
		if q.Records > 100_000 {
			sawLarge = true
		}
	}
	if !sawSmall || !sawLarge {
		t.Fatal("log-uniform sizes should span small and large queries")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := sched.DefaultWorkload(0, 1)
	if _, err := sched.Generate(bad); err == nil {
		t.Fatal("zero queries accepted")
	}
	bad = sched.DefaultWorkload(10, 1)
	bad.TreeChoices = nil
	if _, err := sched.Generate(bad); err == nil {
		t.Fatal("empty tree choices accepted")
	}
	bad = sched.DefaultWorkload(10, 1)
	bad.MinRecords = 0
	if _, err := sched.Generate(bad); err == nil {
		t.Fatal("zero MinRecords accepted")
	}
}

func TestDeviceOf(t *testing.T) {
	cases := map[string]sched.Device{
		"CPU_SKLearn":   sched.DeviceCPU,
		"CPU_ONNX":      sched.DeviceCPU,
		"CPU_ONNX_52th": sched.DeviceCPU,
		"GPU_HB":        sched.DeviceGPU,
		"GPU_RAPIDS":    sched.DeviceGPU,
		"FPGA":          sched.DeviceFPGA,
	}
	for name, want := range cases {
		if got := sched.DeviceOf(name); got != want {
			t.Errorf("DeviceOf(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestStaticPolicyRunsAndCounts(t *testing.T) {
	tb := platform.New()
	qs, err := sched.Generate(sched.DefaultWorkload(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	comps, m, err := sim.Run(sched.Static{BackendName: "CPU_SKLearn", Registry: tb.Registry}, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 100 || m.Placements["CPU_SKLearn"] != 100 || m.Offloaded != 0 {
		t.Fatalf("static CPU metrics: %+v", m)
	}
	// FIFO invariant: per device, starts are non-decreasing and service
	// intervals never overlap.
	var lastFinish time.Duration
	for _, c := range comps {
		if c.Start < c.Query.Arrival {
			t.Fatal("query started before arrival")
		}
		if c.Start < lastFinish {
			t.Fatal("device served two queries at once")
		}
		lastFinish = c.Finish
	}
}

func TestOracleBeatsStaticCPU(t *testing.T) {
	tb := platform.New()
	qs, err := sched.Generate(sched.DefaultWorkload(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	ms, err := sim.Compare(qs,
		sched.Static{BackendName: "CPU_SKLearn", Registry: tb.Registry},
		sched.Oracle{Advisor: tb.Advisor},
	)
	if err != nil {
		t.Fatal(err)
	}
	cpu, oracle := ms[0], ms[1]
	if oracle.Makespan >= cpu.Makespan {
		t.Fatalf("oracle makespan %v should beat static CPU %v", oracle.Makespan, cpu.Makespan)
	}
	if oracle.Offloaded == 0 {
		t.Fatal("oracle never offloaded on a mixed workload")
	}
	if oracle.Offloaded == len(qs) {
		t.Fatal("oracle offloaded everything — small queries should stay on CPU")
	}
}

func TestContentionAwareBeatsOracleUnderLoad(t *testing.T) {
	// Saturate: large queries arriving back-to-back pile up on the FPGA
	// under the queue-oblivious oracle; the contention-aware policy spreads
	// them across GPU and CPU.
	tb := platform.New()
	cfg := sched.DefaultWorkload(200, 11)
	cfg.MeanInterarrival = 100 * time.Microsecond // heavy load
	cfg.MinRecords = 200_000                      // all big queries
	qs, err := sched.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	ms, err := sim.Compare(qs,
		sched.Oracle{Advisor: tb.Advisor},
		sched.ContentionAware{Advisor: tb.Advisor},
	)
	if err != nil {
		t.Fatal(err)
	}
	oracle, aware := ms[0], ms[1]
	if aware.MeanLatency >= oracle.MeanLatency {
		t.Fatalf("contention-aware mean latency %v should beat oracle %v under load",
			aware.MeanLatency, oracle.MeanLatency)
	}
	// The aware policy must actually use more than one device.
	devices := 0
	for _, d := range []sched.Device{sched.DeviceCPU, sched.DeviceGPU, sched.DeviceFPGA} {
		if aware.Busy[d] > 0 {
			devices++
		}
	}
	if devices < 2 {
		t.Fatalf("contention-aware used only %d device(s)", devices)
	}
}

func TestMetricsPercentiles(t *testing.T) {
	tb := platform.New()
	qs, err := sched.Generate(sched.DefaultWorkload(150, 13))
	if err != nil {
		t.Fatal(err)
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	_, m, err := sim.Run(sched.Oracle{Advisor: tb.Advisor}, qs)
	if err != nil {
		t.Fatal(err)
	}
	if m.P50 > m.P99 {
		t.Fatalf("P50 %v > P99 %v", m.P50, m.P99)
	}
	if m.MeanLatency <= 0 || m.Makespan <= 0 {
		t.Fatalf("degenerate metrics %+v", m)
	}
	for _, d := range []sched.Device{sched.DeviceCPU, sched.DeviceGPU, sched.DeviceFPGA} {
		u := m.Utilization(d)
		if u < 0 || u > 1 {
			t.Fatalf("utilization(%s) = %v", d, u)
		}
	}
}

func TestUnorderedStreamRejected(t *testing.T) {
	tb := platform.New()
	qs := []sched.Query{
		{ID: 0, Arrival: time.Second, Stats: forest.SyntheticStats(1, 6, 4, 3), Records: 10},
		{ID: 1, Arrival: 0, Stats: forest.SyntheticStats(1, 6, 4, 3), Records: 10},
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	if _, _, err := sim.Run(sched.Oracle{Advisor: tb.Advisor}, qs); err == nil {
		t.Fatal("unordered stream accepted")
	}
}

func TestStaticUnknownBackend(t *testing.T) {
	tb := platform.New()
	qs, _ := sched.Generate(sched.DefaultWorkload(5, 1))
	sim := &sched.Simulator{Registry: tb.Registry}
	if _, _, err := sim.Run(sched.Static{BackendName: "TPU", Registry: tb.Registry}, qs); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func BenchmarkOracleScheduling(b *testing.B) {
	tb := platform.New()
	qs, err := sched.Generate(sched.DefaultWorkload(500, 1))
	if err != nil {
		b.Fatal(err)
	}
	sim := &sched.Simulator{Registry: tb.Registry}
	policy := sched.Oracle{Advisor: tb.Advisor}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(policy, qs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRenderTrace(t *testing.T) {
	tb := platform.New()
	qs, err := sched.Generate(sched.DefaultWorkload(60, 17))
	if err != nil {
		t.Fatal(err)
	}
	simu := &sched.Simulator{Registry: tb.Registry}
	comps, _, err := simu.Run(sched.Oracle{Advisor: tb.Advisor}, qs)
	if err != nil {
		t.Fatal(err)
	}
	out := sched.RenderTrace(comps, 80)
	for _, want := range []string{"cpu", "gpu", "fpga", "trace over"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if sched.RenderTrace(nil, 80) != "(no completions)\n" {
		t.Fatal("empty trace rendering wrong")
	}
}

func TestRenderMetrics(t *testing.T) {
	tb := platform.New()
	qs, _ := sched.Generate(sched.DefaultWorkload(40, 19))
	simu := &sched.Simulator{Registry: tb.Registry}
	ms, err := simu.Compare(qs,
		sched.Static{BackendName: "CPU_SKLearn", Registry: tb.Registry},
		sched.Oracle{Advisor: tb.Advisor},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := sched.RenderMetrics(ms)
	if !strings.Contains(out, "static-CPU_SKLearn") || !strings.Contains(out, "oracle") {
		t.Fatalf("metrics table missing policies:\n%s", out)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	qs, err := sched.Generate(sched.DefaultWorkload(100, 29))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sched.WriteTrace(&buf, qs); err != nil {
		t.Fatal(err)
	}
	back, err := sched.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(qs) {
		t.Fatalf("%d queries after round trip", len(back))
	}
	for i := range qs {
		if qs[i].ID != back[i].ID || qs[i].Arrival != back[i].Arrival ||
			qs[i].Records != back[i].Records || qs[i].Stats.Trees != back[i].Stats.Trees ||
			qs[i].Stats.MaxDepth != back[i].Stats.MaxDepth {
			t.Fatalf("query %d changed: %+v vs %+v", i, qs[i], back[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	bad := []string{
		"",
		"x,y\n",
		"id,arrival_ns,trees,depth,features,classes,records\n1,notanumber,1,1,1,1,1\n",
		"id,arrival_ns,trees,depth,features,classes,records\n0,100,1,6,4,3,10\n1,50,1,6,4,3,10\n",
		"id,arrival_ns,trees,depth,features,classes,records\n0,0,1,6,4,3,0\n",
	}
	for _, s := range bad {
		if _, err := sched.ReadTrace(strings.NewReader(s)); err == nil {
			t.Fatalf("ReadTrace accepted %q", s)
		}
	}
}

func TestSimulatorIsWorkConservingFIFOPerDevice(t *testing.T) {
	// A saturating multi-device stream, recomputed by hand: every query
	// completes exactly once, each device serves in arrival order and
	// starts a query the moment both it and the query are ready, and the
	// metrics are the sums of what the completions say.
	tb := platform.New()
	cfg := sched.DefaultWorkload(200, 37)
	cfg.MeanInterarrival = time.Millisecond
	qs, err := sched.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comps, m, err := (&sched.Simulator{Registry: tb.Registry}).Run(sched.Oracle{Advisor: tb.Advisor}, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(qs) {
		t.Fatalf("%d completions for %d queries", len(comps), len(qs))
	}
	freeAt := map[sched.Device]time.Duration{}
	busy := map[sched.Device]time.Duration{}
	var sum, makespan time.Duration
	for i, c := range comps {
		if c.Query.ID != qs[i].ID {
			t.Fatalf("completion %d is query %d, want %d", i, c.Query.ID, qs[i].ID)
		}
		want := c.Query.Arrival
		if freeAt[c.Device] > want {
			want = freeAt[c.Device]
		}
		if c.Start != want || c.Finish != c.Start+c.Service {
			t.Fatalf("query %d on %s: start %v finish %v, want start %v (+%v)",
				c.Query.ID, c.Device, c.Start, c.Finish, want, c.Service)
		}
		freeAt[c.Device] = c.Finish
		busy[c.Device] += c.Service
		sum += c.Latency()
		if c.Finish > makespan {
			makespan = c.Finish
		}
	}
	if m.Makespan != makespan || m.MeanLatency != sum/time.Duration(len(comps)) {
		t.Fatalf("metrics %v/%v, completions say %v/%v",
			m.Makespan, m.MeanLatency, makespan, sum/time.Duration(len(comps)))
	}
	devices := 0
	for _, d := range []sched.Device{sched.DeviceCPU, sched.DeviceGPU, sched.DeviceFPGA} {
		if m.Busy[d] != busy[d] {
			t.Fatalf("device %s busy %v, completions say %v", d, m.Busy[d], busy[d])
		}
		if busy[d] > 0 {
			devices++
		}
	}
	if devices < 2 {
		t.Fatalf("stream exercised %d device(s); the per-device check needs at least two", devices)
	}
}
