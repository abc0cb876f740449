package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"accelscore/internal/exec"
	"accelscore/internal/experiments"
	"accelscore/internal/harness"
	"accelscore/internal/obs"
	"accelscore/internal/router"
)

func TestEnvelopeFields(t *testing.T) {
	doc := harness.Envelope("throughput")
	if doc["schema_version"] != harness.ArtifactSchemaVersion {
		t.Errorf("schema_version = %v", doc["schema_version"])
	}
	if doc["kind"] != "throughput" {
		t.Errorf("kind = %v", doc["kind"])
	}
	if s, ok := doc["git_describe"].(string); !ok || s == "" {
		t.Errorf("git_describe = %v", doc["git_describe"])
	}
	gen, ok := doc["generated"].(string)
	if !ok {
		t.Fatalf("generated = %v", doc["generated"])
	}
	if _, err := time.Parse(time.RFC3339, gen); err != nil {
		t.Errorf("generated %q is not RFC3339: %v", gen, err)
	}
	host, ok := doc["host"].(map[string]any)
	if !ok {
		t.Fatalf("host = %v", doc["host"])
	}
	for _, k := range []string{"goos", "goarch", "gomaxprocs", "num_cpu", "kernel_walk"} {
		if _, ok := host[k]; !ok {
			t.Errorf("host missing %q", k)
		}
	}
}

func TestBenchDocCarriesEnvelopeAndSLO(t *testing.T) {
	cfg := harness.LoadConfig{Queries: 10, Seed: 1, Backend: "CPU_SKLearn", TableRows: 64}
	opt := harness.RunOptions{
		Clients: 4,
		SLO:     []obs.Objective{{Class: "default", Latency: 100 * time.Millisecond}},
	}
	reports := []*harness.LoadReport{
		{Label: "serialized", Queries: 10, Ok: 10, ThroughputQPS: 100},
		{Label: "executor", Queries: 10, Ok: 10, ThroughputQPS: 250},
	}
	doc := benchDoc(smokeJob("throughput", ""), cfg, opt, reports)
	if doc["schema_version"] != harness.ArtifactSchemaVersion || doc["kind"] != "throughput" {
		t.Errorf("benchDoc envelope: version=%v kind=%v", doc["schema_version"], doc["kind"])
	}
	wl, ok := doc["workload"].(map[string]any)
	if !ok {
		t.Fatalf("workload = %v", doc["workload"])
	}
	if wl["slo"] != "default=100ms" {
		t.Errorf("workload slo = %v", wl["slo"])
	}
	speed, ok := doc["speedup_vs_serialized"].(map[string]float64)
	if !ok || speed["executor"] != 2.5 {
		t.Errorf("speedups = %v", doc["speedup_vs_serialized"])
	}
}

// keyPaths returns the set of JSON key paths in doc as CI's Python reads
// them: "a.b" for nested objects, "a[].b" for objects inside arrays.
func keyPaths(t *testing.T, doc any) map[string]bool {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				paths[p] = true
				walk(p, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", tree)
	return paths
}

var envelopePaths = []string{
	"schema_version", "kind", "generated", "git_describe",
	"host.goos", "host.goarch", "host.gomaxprocs", "host.num_cpu", "host.kernel_walk", "presets",
}

// smokeJob is a job running mode's smoke preset, writing its JSON to path.
func smokeJob(mode, path string) *job {
	return &job{mode: mode, preset: "smoke", json: path}
}

// TestArtifactShapes builds each mode's JSON document from a tiny
// in-process run (the process-level legs stand in as their zero-valued
// reports) and checks every key path the CI assertions in ci.yml read.
func TestArtifactShapes(t *testing.T) {
	check := func(t *testing.T, doc any, want ...string) {
		t.Helper()
		got := keyPaths(t, doc)
		for _, p := range append(want, envelopePaths...) {
			if !got[p] {
				var have []string
				for k := range got {
					have = append(have, k)
				}
				sort.Strings(have)
				t.Errorf("artifact has no %q; it has %v", p, have)
			}
		}
	}
	load := harness.LoadConfig{Queries: 8, Seed: 1, Backend: "CPU_SKLearn", TableRows: 32,
		TreeChoices: []int{4}, DepthChoices: []int{4}}

	t.Run("throughput", func(t *testing.T) {
		opt := harness.RunOptions{Clients: 2, SLO: []obs.Objective{{Class: "default", Latency: time.Hour}}}
		var reports []*harness.LoadReport
		for _, label := range []string{"serialized", "executor"} {
			env, err := harness.BuildLoadEnv(load, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := harness.RunLoad(env, &harness.SerializedRunner{Pipe: env.Pipe}, label, opt)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		check(t, benchDoc(smokeJob("throughput", ""), load, opt, reports),
			"workload.queries", "workload.slo", "speedup_vs_serialized.executor",
			"reports[].label", "reports[].ok", "reports[].rejected", "reports[].throughput_qps",
			"reports[].mean_ns", "reports[].p50_ns", "reports[].p99_ns", "reports[].goodput", "reports[].slo[].class")
	})

	t.Run("chaos", func(t *testing.T) {
		cfg := harness.ChaosConfig{
			Load: load, Clients: 2, Deadline: 2 * time.Second,
			Exec:      exec.Config{MaxRetries: 3},
			FaultSpec: "CPU_SKLearn:invoke:busy:every=3", FaultSeed: 1,
		}
		rep, err := harness.RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chaos.FaultsInjected == 0 || rep.Chaos.Wrong != 0 || rep.Healthy.Ok != load.Queries {
			t.Fatalf("tiny chaos run: healthy %+v, chaos %+v", rep.Healthy, rep.Chaos)
		}
		var paths []string
		for _, run := range []string{"healthy", "chaos"} {
			for _, f := range []string{"ok", "wrong_predictions", "availability", "faults_injected",
				"retries", "fallbacks", "deadline_exceeded", "p50_ns", "p99_ns"} {
				paths = append(paths, run+"."+f)
			}
		}
		doc := mergedChaosDoc(smokeJob("chaos", filepath.Join(t.TempDir(), "chaos.json")), chaosSections(cfg, rep))
		check(t, doc, append(paths, "plan", "fault_seed", "deadline", "workload.queries")...)
	})

	t.Run("fusion", func(t *testing.T) {
		rep, err := harness.RunFusionBench(harness.FusionBenchConfig{
			Rows: 64, Trees: 4, Depth: 4, Seed: 1, Repeats: 1, Selectivities: []float64{0.5}, JunkCols: 2,
			Backend: "CPU_SKLearn",
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, fusionDoc(smokeJob("fusion", ""), rep),
			"report.selectivities", "report.tables[].convert_speedup", "report.cells[].rows_scanned",
			"report.cells[].fused_ns", "report.cells[].unfused_ns", "report.cells[].speedup")
	})

	t.Run("restart", func(t *testing.T) {
		// Merging into an existing chaos report keeps it and adds the key.
		path := filepath.Join(t.TempDir(), "chaos.json")
		if err := harness.WriteJSON(path, map[string]any{"plan": "kept"}); err != nil {
			t.Fatal(err)
		}
		doc := mergedChaosDoc(smokeJob("restart", path), map[string]any{"restart_chaos": restartReport{}})
		check(t, doc, "plan", "restart_chaos.kills", "restart_chaos.acked_writes",
			"restart_chaos.lost_acked_writes", "restart_chaos.phantom_rows", "restart_chaos.corrupt_rows",
			"restart_chaos.predictions_bit_identical")
	})

	// The tier modes run here over in-process shards: same router, same
	// driver, same oracle check as the process fleets, minus HTTP.
	const records = 60
	oracle, err := harness.NewDemoOracle(records, "CPU_ONNX")
	if err != nil {
		t.Fatal(err)
	}
	var backends []router.Backend
	for _, name := range []string{"shard-0", "shard-1", "shard-2"} {
		demo, err := experiments.NewDemo(records)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, &router.Local{Name: name, Pipe: demo.Pipe})
	}

	t.Run("scaleout", func(t *testing.T) {
		p := scaleoutConfig{Shards: []int{1, 3}, Records: []int{records}, Queries: 4}
		var cells []scaleCell
		for _, n := range p.Shards {
			cell, err := runScaleCell(backends[:n], p.Queries, oracle)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, *cell)
		}
		doc, _ := scaleoutDoc(smokeJob("scaleout", ""), p, cells, &scaleChaos{})
		check(t, doc,
			"cells[].verified_bit_identical", "cells[].queries_per_sec", "cells[].predicted_queries_per_sec",
			"cells[].shards", "cells[].speedup", "best_speedup_at_max_shards",
			"chaos.wrong_predictions", "chaos.ok_after_kill", "chaos.verdict", "chaos.queries_ok",
			"chaos.reroutes", "chaos.killed_shard")
	})

	t.Run("overload", func(t *testing.T) {
		p := overloadConfig{Records: records, Mults: []float64{1}}
		r, err := overloadRouter(backends)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		schedule := []time.Duration{0, 0, time.Millisecond, 2 * time.Millisecond}
		cell, err := runOverloadCell(overloadCell{Arrival: "burst", DurationNS: int64(time.Second)},
			r, schedule, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Offered != len(schedule) || cell.Offered != cell.Accepted+cell.Shed+cell.Failed {
			t.Fatalf("cell does not balance: %+v", cell)
		}
		check(t, overloadDoc(smokeJob("overload", ""), p, 1, []overloadCell{cell}, r.AdmissionStats(), &overloadChaosReport{}),
			"cells[].wrong", "cells[].offered", "cells[].accepted", "cells[].shed", "cells[].failed",
			"cells[].p95_ns", "saturation_qps", "admission.shed",
			"chaos.wrong", "chaos.drain_wrong", "chaos.ok_after_kill", "chaos.flap_rejoined",
			"chaos.drain_errors", "chaos.verdict", "chaos.shed", "chaos.accepted")
	})
}

// TestChaosReportKeepsBothModes writes the chaos and restart modes' sections
// into one CHAOS_report.json in both orders: each mode keeps the other's
// sections, the file keeps one envelope, and it records both presets.
func TestChaosReportKeepsBothModes(t *testing.T) {
	sections := map[string]map[string]any{
		"chaos": chaosSections(chaosPresets["smoke"].chaos(),
			&harness.ChaosReport{Plan: "plan", Healthy: &harness.ChaosRun{}, Chaos: &harness.ChaosRun{}}),
		"restart": {"restart_chaos": restartReport{Kills: 2}},
	}
	for _, order := range [][]string{{"chaos", "restart"}, {"restart", "chaos"}} {
		path := filepath.Join(t.TempDir(), "CHAOS_report.json")
		for _, mode := range order {
			if err := harness.WriteJSON(path, mergedChaosDoc(smokeJob(mode, path), sections[mode])); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		got := keyPaths(t, doc)
		for _, p := range append([]string{"plan", "workload.queries", "healthy", "chaos", "restart_chaos.kills",
			"presets.chaos.name", "presets.restart.name"}, envelopePaths...) {
			if !got[p] {
				t.Errorf("order %v: report has no %q", order, p)
			}
		}
		if doc["kind"] != "chaos" {
			t.Errorf("order %v: kind = %v", order, doc["kind"])
		}
	}
}

// at reads a dotted key path out of a decoded JSON document; a path step
// into an array reads it out of every element.
func at(v any, path string) any {
	if path == "" {
		return v
	}
	if list, ok := v.([]any); ok {
		out := make([]any, len(list))
		for i, e := range list {
			out[i] = at(e, path)
		}
		return out
	}
	key, rest, _ := strings.Cut(path, ".")
	m, _ := v.(map[string]any)
	return at(m[key], rest)
}

// TestArtifactPresetsMatchCommitted builds the document each mode's
// "artifact" preset would write and compares the configuration it records,
// field by field, with the committed artifact at the repository root — so
// regenerating an artifact is running its preset, and editing the preset is
// how its configuration changes.
func TestArtifactPresetsMatchCommitted(t *testing.T) {
	match := func(t *testing.T, file string, wouldWrite any, paths ...string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		var committed, preset any
		if err := json.Unmarshal(data, &committed); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(wouldWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &preset); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if got, want := at(committed, p), at(preset, p); got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: committed %v, artifact preset gives %v", file, p, got, want)
			}
		}
	}
	artifact := func(mode string) *job { return &job{mode: mode, preset: "artifact"} }

	t.Run("throughput", func(t *testing.T) {
		p := throughputPresets["artifact"]
		objectives, err := obs.ParseSLOSpec(p.SLO)
		if err != nil {
			t.Fatal(err)
		}
		reports := []*harness.LoadReport{{Label: "serialized"}}
		for _, w := range p.Workers {
			reports = append(reports, &harness.LoadReport{Label: executorLabel(w)})
		}
		doc := benchDoc(artifact("throughput"), p.load(), harness.RunOptions{Clients: clients, SLO: objectives}, reports)
		match(t, "BENCH_throughput.json", doc, "workload.queries", "workload.seed", "workload.backend",
			"workload.rows", "workload.trees", "workload.depths", "workload.clients", "workload.slo", "reports.label")
	})

	t.Run("fusion", func(t *testing.T) {
		rep := &harness.FusionBenchReport{FusionBenchConfig: fusionPresets["artifact"].bench()}
		match(t, "BENCH_fusion.json", fusionDoc(artifact("fusion"), rep), "report.rows", "report.trees",
			"report.depth", "report.seed", "report.repeats", "report.selectivities", "report.junk_cols", "report.backend")
	})

	t.Run("scaleout", func(t *testing.T) {
		p := scaleoutPresets["artifact"]
		var cells []scaleCell
		for _, records := range p.Records {
			for _, shards := range p.Shards {
				cells = append(cells, scaleCell{Records: records, Shards: shards})
			}
		}
		doc, _ := scaleoutDoc(artifact("scaleout"), p, cells, &scaleChaos{})
		match(t, "BENCH_scaleout.json", doc, "backend", "pace_scale", "queries_per_cell",
			"router_overhead_ns", "cells.shards", "cells.records")
	})

	t.Run("chaos", func(t *testing.T) {
		cfg := chaosPresets["artifact"].chaos()
		doc := chaosSections(cfg, &harness.ChaosReport{Plan: cfg.FaultSpec, Seed: cfg.FaultSeed})
		p := restartPresets["artifact"]
		doc["restart_chaos"] = restartReport{Kills: p.Kills, Writers: p.Writers, Fsync: p.Fsync}
		match(t, "CHAOS_report.json", doc, "plan", "fault_seed", "deadline", "workload.queries",
			"workload.seed", "workload.backend", "workload.rows", "workload.clients",
			"restart_chaos.kills", "restart_chaos.writers", "restart_chaos.fsync")
	})

	t.Run("overload", func(t *testing.T) {
		// No BENCH_overload.json is committed, so nothing pins this preset
		// but this: it is the configuration loadgen's flag defaults
		// described before modes ran from presets.
		want := overloadConfig{Records: 500, Mults: []float64{0.5, 1, 2}}
		if got := overloadPresets["artifact"]; !reflect.DeepEqual(got, want) {
			t.Errorf("overload artifact preset = %+v, want %+v", got, want)
		}
	})
}
