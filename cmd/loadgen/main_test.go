package main

import (
	"bytes"
	"flag"
	"log"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	flags(fs, new(job))
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"json", "mode", "preset", "serve-bin"}; !slices.Equal(got, want) {
		t.Errorf("loadgen flags = %v, want %v", got, want)
	}
}

func TestEveryModeHasSmokeAndArtifact(t *testing.T) {
	if len(modes) != 6 {
		t.Errorf("%d modes, want 6", len(modes))
	}
	for name, m := range modes {
		for _, p := range []string{"smoke", "artifact"} {
			if !slices.Contains(m.presets, p) {
				t.Errorf("mode %s has no %q preset (has %v)", name, p, m.presets)
			}
		}
	}
}

// TestRunRejectsUnknownNames drives run: a missing or unknown mode or
// preset, or a flag from before presets, fails before anything runs, and
// the error names what is valid.
func TestRunRejectsUnknownNames(t *testing.T) {
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	allModes := []string{"throughput", "chaos", "fusion", "restart", "scaleout", "overload"}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, allModes},
		{[]string{"-mode", "bench", "-preset", "smoke"}, allModes},
		{[]string{"-mode", "chaos"}, []string{"artifact", "smoke"}},
		{[]string{"-mode", "fusion", "-preset", "full"}, []string{"artifact", "smoke"}},
		{[]string{"-mode", "restart", "-preset", "batch"}, []string{"artifact", "smoke", "smoke-batch"}},
		{[]string{"-bench"}, []string{"-bench"}},
		{[]string{"-mode", "throughput", "-preset", "smoke", "-queries", "10"}, []string{"-queries"}},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%q) succeeded", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("run(%q) = %q, want it to name %q", tc.args, err, w)
			}
		}
	}
}

func TestHelpListsModesAndPresets(t *testing.T) {
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for name, m := range modes {
		if !strings.Contains(stdout.String(), "-mode "+name) || !strings.Contains(stdout.String(), m.json) {
			t.Errorf("-h output does not list mode %s and %s:\n%s", name, m.json, &stdout)
		}
	}
	if !strings.Contains(stdout.String(), "smoke-batch") {
		t.Errorf("-h output does not list restart's smoke-batch preset:\n%s", &stdout)
	}
}
