package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// repoGoldenDir is the blessed snapshot committed with the repository,
// relative to this package directory.
const repoGoldenDir = "../../results/golden"

// TestGoldenRoundTrip blesses the suite into a temp directory and compares
// against it immediately: the comparator must report zero diffs against its
// own output, and the manifest must list every figure.
func TestGoldenRoundTrip(t *testing.T) {
	s := NewSuite()
	dir := t.TempDir()
	if err := s.WriteGoldenDir(dir); err != nil {
		t.Fatalf("blessing: %v", err)
	}
	diffs, err := s.CompareGoldenDir(dir)
	if err != nil {
		t.Fatalf("comparing: %v", err)
	}
	for _, d := range diffs {
		t.Errorf("self-comparison diff: %s", d)
	}
	for _, name := range []string{"fig1.csv", "fig7.csv", "fig8_IRIS.csv", "fig8_HIGGS.csv", "fig9.csv", "fig10.csv", "fig11.csv", "MANIFEST.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("blessed directory missing %s: %v", name, err)
		}
	}
}

// TestGoldenDetectsDrift corrupts one blessed cell beyond tolerance and one
// within it: the comparator must flag the first and absorb the second.
func TestGoldenDetectsDrift(t *testing.T) {
	s := NewSuite()
	dir := t.TempDir()
	if err := s.WriteGoldenDir(dir); err != nil {
		t.Fatalf("blessing: %v", err)
	}

	// Beyond tolerance: double the first fig9 latency value.
	path := filepath.Join(dir, "fig9.csv")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := mutateLastField(t, blob, func(v string) string { return v + "0" }) // 10x
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	diffs, err := s.CompareGoldenDir(dir)
	if err != nil {
		t.Fatalf("comparing: %v", err)
	}
	found := false
	for _, d := range diffs {
		if d.File == "fig9.csv" && d.Column == "latency_ns" {
			found = true
		}
	}
	if !found {
		t.Fatalf("10x latency corruption not flagged; diffs: %v", diffs)
	}

	// Re-bless, then drift within tolerance (last digit of a ~1e6+ ns value):
	// must pass.
	if err := s.WriteGoldenDir(dir); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nudged := mutateLastField(t, blob, func(v string) string {
		b := []byte(v)
		last := len(b) - 1
		if b[last] == '9' {
			b[last] = '8'
		} else {
			b[last]++
		}
		return string(b)
	})
	if err := os.WriteFile(path, nudged, 0o644); err != nil {
		t.Fatal(err)
	}
	diffs, err = s.CompareGoldenDir(dir)
	if err != nil {
		t.Fatalf("comparing: %v", err)
	}
	for _, d := range diffs {
		t.Errorf("last-ulp drift flagged: %s", d)
	}
}

// mutateLastField applies f to the last comma-separated field of the CSV's
// final data line (a numeric cell in every figure CSV).
func mutateLastField(t *testing.T, blob []byte, f func(string) string) []byte {
	t.Helper()
	s := string(blob)
	end := len(s)
	for end > 0 && (s[end-1] == '\n' || s[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && s[start-1] != ',' && s[start-1] != '\n' {
		start--
	}
	if start == end {
		t.Fatal("could not locate a final CSV field to mutate")
	}
	return []byte(s[:start] + f(s[start:end]) + s[end:])
}

// TestGoldenAgainstBlessed is the regression gate: the committed goldens
// under results/golden must match a fresh regeneration. A legitimate model
// change is re-blessed with `go run ./cmd/accelscore conformance -bless` (see
// EXPERIMENTS.md).
func TestGoldenAgainstBlessed(t *testing.T) {
	if _, err := os.Stat(repoGoldenDir); err != nil {
		t.Fatalf("blessed golden directory missing: %v (bless with `go run ./cmd/accelscore conformance -bless`)", err)
	}
	diffs, err := NewSuite().CompareGoldenDir(repoGoldenDir)
	if err != nil {
		t.Fatalf("comparing: %v", err)
	}
	for _, d := range diffs {
		t.Errorf("golden drift: %s", d)
	}
}
