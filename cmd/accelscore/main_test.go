package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"accelscore/internal/obs"
)

// invoke runs one command line and returns the exit status with both streams.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunExitStatusAndOutput(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "metrics.txt")
	corrupt := filepath.Join(dir, "corrupt.txt")
	reg := obs.NewRegistry()
	reg.Counter("accelscore_demo_total", "A counter.", "kind", "a").Add(3)
	reg.Histogram("accelscore_demo_seconds", "A histogram.", nil).Observe(0.01)
	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	writeFile(t, clean, exposition.String())
	// The +Inf bucket no longer equals _count: a histogram invariant.
	writeFile(t, corrupt, strings.Replace(exposition.String(), "accelscore_demo_seconds_count 1", "accelscore_demo_seconds_count 7", 1))

	cases := []struct {
		name       string
		args       []string
		code       int
		stdout     string // substring of stdout, when set
		stderr     string // substring of stderr, when set
		stdoutNone bool   // stdout must be empty
	}{
		{name: "no verb", args: nil, code: 2, stderr: "conformance", stdoutNone: true},
		{name: "unknown verb", args: []string{"shmoo"}, code: 2, stderr: `unknown verb "shmoo"`},
		{name: "unknown verb lists the verbs", args: []string{"shmoo"}, code: 2, stderr: "obslint"},
		{name: "repro -h", args: []string{"repro", "-h"}, code: 0, stderr: "-fig"},
		{name: "score -h", args: []string{"score", "-h"}, code: 0, stderr: "-pipeline"},
		{name: "sched -h", args: []string{"sched", "-h"}, code: 0, stderr: "-interarrival"},
		{name: "model -h", args: []string{"model", "-h"}, code: 0, stderr: "model dot FILE [-tree N]"},
		{name: "conformance -h", args: []string{"conformance", "-h"}, code: 0, stderr: "-bless"},
		{name: "obslint -h", args: []string{"obslint", "-h"}, code: 0},
		{name: "undefined flag", args: []string{"repro", "-speedup"}, code: 2, stderr: "flag provided but not defined"},
		{name: "stray positional", args: []string{"sched", "extra"}, code: 2, stderr: `unexpected argument "extra"`},
		{name: "model without sub-verb", args: []string{"model"}, code: 2, stderr: "model validate FILE"},
		{name: "headline ratios", args: []string{"repro", "-fig", "headline"}, code: 0, stdout: "FPGA speedup over best CPU:      46.5x   (paper: 54x)"},
		{name: "unknown figure", args: []string{"repro", "-fig", "12"}, code: 1, stderr: `unknown figure "12"`},
		{name: "csv needs out", args: []string{"repro", "-csv"}, code: 1, stderr: "-csv requires -out"},
		{name: "compare against the pipeline", args: []string{"score", "-compare", "-tight"}, code: 2, stderr: "-compare calls the engines directly"},
		{name: "compare", args: []string{"score", "-records", "50", "-compare"}, code: 0, stdout: "GPU_RAPIDS"},
		{name: "unknown backend", args: []string{"score", "-records", "10", "-backend", "TPU"}, code: 1, stderr: `backend "TPU" not registered`},
		{name: "sched", args: []string{"sched", "-queries", "40", "-trace"}, code: 0, stdout: "contention-aware"},
		{name: "obslint clean", args: []string{"obslint", clean}, code: 0, stdout: clean + ": ok"},
		{name: "obslint corrupt", args: []string{"obslint", clean, corrupt}, code: 1, stderr: corrupt + ":"},
		{name: "obslint missing file", args: []string{"obslint", filepath.Join(dir, "absent")}, code: 1},
		{name: "conformance missing goldens", args: []string{"conformance", "-short", "-golden", filepath.Join(dir, "absent")}, code: 1, stdout: "Golden figures: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := invoke(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
			if tc.stdoutNone && stdout != "" {
				t.Errorf("stdout not empty:\n%s", stdout)
			}
		})
	}
}

var crcRE = regexp.MustCompile(`scored 100 records on (\S+) \(.*predictions crc32 ([0-9a-f]{8})\)`)

// TestScoreEngineAndPipelineAgree: the same model over the same rows yields
// the same predictions straight from the engine, through the loose pipeline
// and through the tight one, and -trace leaves the Chrome trace-event file
// CI's trace-artifact job asserts on.
func TestScoreEngineAndPipelineAgree(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	crcs := map[string]string{}
	for name, args := range map[string][]string{
		"engine":   {"score", "-records", "100"},
		"pipeline": {"score", "-records", "100", "-pipeline"},
		"tight":    {"score", "-records", "100", "-tight", "-trace", trace},
	} {
		code, stdout, stderr := invoke(args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr)
		}
		m := crcRE.FindStringSubmatch(stdout)
		if m == nil || m[1] != "CPU_SKLearn" {
			t.Fatalf("%s: no CPU_SKLearn prediction line in:\n%s", name, stdout)
		}
		crcs[name] = m[2]
		if inPipeline := strings.Contains(stdout, "end-to-end query breakdown (Fig. 11)"); inPipeline != (name != "engine") {
			t.Errorf("%s: Fig. 11 breakdown printed = %v", name, inPipeline)
		}
		if tight := strings.Contains(stdout, "pipeline: tightly integrated"); tight != (name == "tight") {
			t.Errorf("%s: tightly-integrated runtime used = %v", name, tight)
		}
	}
	if crcs["engine"] != crcs["pipeline"] || crcs["engine"] != crcs["tight"] {
		t.Fatalf("predictions differ by path: %v", crcs)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph] = true
	}
	if !phases["X"] || !phases["M"] {
		t.Fatalf("trace phases %v, want both X and M", phases)
	}
}

// TestModelRoundTrip drives train → info → validate → dot on one file, with
// FILE before the flag (the order the usage prints, which the flag package
// alone does not parse) and after it.
func TestModelRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.rfx")
	steps := []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{args: []string{"model", "train", "-trees", "4", "-depth", "5"}, code: 2, stderr: "train requires -o FILE"},
		{args: []string{"model", "train", "-o", path, "-trees", "4", "-depth", "5"}, stdout: "wrote " + path},
		{args: []string{"model", "info", path}, stdout: "top features by importance"},
		{args: []string{"model", "validate", path}, stdout: path + ": valid RFX blob"},
		{args: []string{"model", "dot", path}, stdout: "digraph"},
		{args: []string{"model", "dot", path, "-tree", "3"}, stdout: "digraph"},
		{args: []string{"model", "dot", "-tree", "3", path}, stdout: "digraph"},
		{args: []string{"model", "dot", path, "-tree", "4"}, code: 1, stderr: "tree"},
		{args: []string{"model", "dot", path, path}, code: 2, stderr: "unexpected argument"},
		{args: []string{"model", "dot", "-tree", "1"}, code: 2, stderr: "requires exactly one FILE"},
		{args: []string{"model", "info", path + ".absent"}, code: 1, stderr: "no such file"},
	}
	for _, st := range steps {
		code, stdout, stderr := invoke(st.args...)
		if code != st.code || !strings.Contains(stdout, st.stdout) || !strings.Contains(stderr, st.stderr) {
			t.Fatalf("%v: exit %d (want %d)\nstdout: %s\nstderr: %s", st.args, code, st.code, stdout, stderr)
		}
	}
	_, tree0, _ := invoke("model", "dot", path)
	_, tree3, _ := invoke("model", "dot", path, "-tree", "3")
	if tree0 == tree3 {
		t.Fatal("-tree after FILE was not honoured: tree 0 and tree 3 render identically")
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
