package harness_test

import (
	"testing"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/harness"
	"accelscore/internal/obs"
)

func TestClassForRecords(t *testing.T) {
	objs := []obs.Objective{
		{Class: "batch", Latency: time.Second},
		{Class: "interactive", Latency: 10 * time.Millisecond},
	}
	const maxRec = 4096
	if got := harness.ClassForRecords(objs, 1, maxRec); got != "interactive" {
		t.Errorf("records=1 -> %q, want interactive", got)
	}
	if got := harness.ClassForRecords(objs, maxRec, maxRec); got != "batch" {
		t.Errorf("records=max -> %q, want batch", got)
	}
	// Monotone: once a stream crosses into the slower class it never drops
	// back to the tighter one.
	crossed := false
	for r := int64(1); r <= maxRec; r *= 2 {
		c := harness.ClassForRecords(objs, r, maxRec)
		switch c {
		case "batch":
			crossed = true
		case "interactive":
			if crossed {
				t.Fatalf("records=%d classified interactive after batch", r)
			}
		default:
			t.Fatalf("records=%d -> unknown class %q", r, c)
		}
	}
	// Single objective absorbs everything; no objectives yield no class.
	one := []obs.Objective{{Class: "only", Latency: time.Second}}
	if got := harness.ClassForRecords(one, maxRec, maxRec); got != "only" {
		t.Errorf("single objective -> %q, want only", got)
	}
	if got := harness.ClassForRecords(nil, 1, maxRec); got != "" {
		t.Errorf("no objectives -> %q, want empty", got)
	}
}

// TestRunLoadGoodput runs the tiny load harness twice over the same stream:
// with unmissable objectives every query is good, with impossible ones every
// query burns budget — bracketing the goodput accounting from both sides.
func TestRunLoadGoodput(t *testing.T) {
	env, err := harness.BuildLoadEnv(harness.LoadConfig{
		Queries:     16,
		TableRows:   256,
		TreeChoices: []int{4}, DepthChoices: []int{6},
	}, obs.NewObserver())
	if err != nil {
		t.Fatal(err)
	}
	runner := &harness.SerializedRunner{Pipe: env.Pipe}

	loose := []obs.Objective{
		{Class: "interactive", Latency: time.Hour},
		{Class: "batch", Latency: 2 * time.Hour},
	}
	rep, err := harness.RunLoad(env, runner, "loose", harness.RunOptions{Clients: 4, SLO: loose})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goodput != 1.0 {
		t.Errorf("loose objectives: goodput = %v, want 1.0\nreport: %+v", rep.Goodput, rep.SLO)
	}
	var total uint64
	for _, c := range rep.SLO {
		total += c.Total
		if c.Good != c.Total {
			t.Errorf("class %s: good %d != total %d under 1h objective", c.Class, c.Good, c.Total)
		}
	}
	if total != 16 {
		t.Errorf("classified %d queries, want 16", total)
	}

	tight, err := harness.RunLoad(env, runner, "tight", harness.RunOptions{
		Clients: 4, SLO: []obs.Objective{{Class: "default", Latency: time.Nanosecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Goodput != 0 {
		t.Errorf("1ns objective: goodput = %v, want 0", tight.Goodput)
	}
	if len(tight.SLO) != 1 || tight.SLO[0].Total != 16 {
		t.Errorf("1ns objective report: %+v", tight.SLO)
	}

	// No SLO configured: the report stays clean so JSON artifacts omit it.
	plain, err := harness.RunLoad(env, runner, "plain", harness.RunOptions{Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SLO != nil || plain.Goodput != 0 {
		t.Errorf("no-SLO run leaked goodput fields: %+v", plain)
	}
}

// TestLoadHarnessSmoke drives the real load harness end to end at tiny
// scale: executor vs serialized baseline over the same deterministic
// stream, plus the simulator prediction for the same stream.
func TestLoadHarnessSmoke(t *testing.T) {
	env, err := harness.BuildLoadEnv(harness.LoadConfig{
		Queries:     24,
		TableRows:   256,
		TreeChoices: []int{4, 8}, DepthChoices: []int{6},
	}, obs.NewObserver())
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(env.Pipe, exec.Config{Workers: 2, QueueDepth: 64})
	got, err := harness.RunLoad(env, e, "executor", harness.RunOptions{Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ok != 24 || got.Errors != 0 || got.Rejected != 0 {
		t.Fatalf("executor run: %+v", got)
	}
	base, err := harness.RunLoad(env, &harness.SerializedRunner{Pipe: env.Pipe}, "serialized", harness.RunOptions{Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.Ok != 24 {
		t.Fatalf("serialized run: %+v", base)
	}
	m, err := env.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan <= 0 {
		t.Fatalf("simulation produced empty metrics: %+v", m)
	}
}
