package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Golden-figure regression mode: the full figure suite is regenerated
// deterministically (every figure derives from the calibrated Estimate
// models, with no randomness or wall-clock input) and snapshotted as CSVs.
// A blessed copy lives under results/golden/; CompareGoldenDir re-runs the
// suite and diffs against it, so any change to the cost models, the advisor
// or the pipeline that moves a published figure fails loudly instead of
// silently redrawing the paper.

// GoldenSeed pins the golden suite's identity; it is recorded in the
// manifest so a blessed directory is self-describing.
const GoldenSeed uint64 = 0x901d_f165

// goldenManifest is the file listing what a blessed directory contains.
const goldenManifest = "MANIFEST.csv"

// goldenTolerances maps numeric CSV columns to their relative comparison
// tolerance. Figures are deterministic, so the tolerances only absorb
// last-ulp float-formatting differences across architectures; every other
// column must match exactly.
var goldenTolerances = map[string]float64{
	"latency_ns":       1e-6,
	"duration_ns":      1e-6,
	"scorings_per_sec": 1e-6,
	"speedup":          1e-6,
}

// GoldenFigures regenerates every snapshotted figure and returns the CSV
// payloads keyed by file name.
func (s *Suite) GoldenFigures() (map[string][]byte, error) {
	out := make(map[string][]byte)
	write := func(name string, gen func(w *bytes.Buffer) error) error {
		var buf bytes.Buffer
		if err := gen(&buf); err != nil {
			return fmt.Errorf("golden %s: %w", name, err)
		}
		out[name] = buf.Bytes()
		return nil
	}

	if err := write("fig1.csv", func(w *bytes.Buffer) error {
		r, err := s.Fig1()
		if err != nil {
			return err
		}
		return WriteFig1CSV(w, r)
	}); err != nil {
		return nil, err
	}
	if err := write("fig7.csv", func(w *bytes.Buffer) error {
		rows, err := s.Fig7()
		if err != nil {
			return err
		}
		return WriteFig7CSV(w, rows)
	}); err != nil {
		return nil, err
	}
	for _, shape := range []DatasetShape{IrisShape, HiggsShape} {
		shape := shape
		if err := write(fmt.Sprintf("fig8_%s.csv", shape.Name), func(w *bytes.Buffer) error {
			r, err := s.Fig8(shape)
			if err != nil {
				return err
			}
			return WriteFig8CSV(w, r)
		}); err != nil {
			return nil, err
		}
	}
	if err := write("fig9.csv", func(w *bytes.Buffer) error {
		panels, err := s.Fig9()
		if err != nil {
			return err
		}
		return WriteFig9CSV(w, panels)
	}); err != nil {
		return nil, err
	}
	if err := write("fig10.csv", func(w *bytes.Buffer) error {
		panels, err := s.Fig10()
		if err != nil {
			return err
		}
		return WriteFig10CSV(w, panels)
	}); err != nil {
		return nil, err
	}
	if err := write("fig11.csv", func(w *bytes.Buffer) error {
		rows, err := s.Fig11()
		if err != nil {
			return err
		}
		return WriteFig11CSV(w, rows)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteGoldenDir blesses the current figures: regenerates the suite and
// writes every CSV plus the manifest into dir.
func (s *Suite) WriteGoldenDir(dir string) error {
	files, err := s.GoldenFigures()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var manifest bytes.Buffer
	mw := csv.NewWriter(&manifest)
	if err := mw.Write([]string{"file", "rows", "seed"}); err != nil {
		return err
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
			return err
		}
		rows := bytes.Count(files[name], []byte("\n"))
		if err := mw.Write([]string{name, strconv.Itoa(rows), fmt.Sprintf("%#x", GoldenSeed)}); err != nil {
			return err
		}
	}
	mw.Flush()
	if err := mw.Error(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenManifest), manifest.Bytes(), 0o644)
}

// GoldenDiff describes one divergence between the regenerated figures and a
// blessed golden directory.
type GoldenDiff struct {
	// File is the CSV the divergence is in.
	File string
	// Row is the 1-based data-row number (0 for file-level problems).
	Row int
	// Column is the header name of the diverging cell ("" for file-level).
	Column string
	// Got and Want are the regenerated and blessed values.
	Got, Want string
	// Detail explains the divergence.
	Detail string
}

// String renders the diff for reports.
func (d GoldenDiff) String() string {
	if d.Row == 0 {
		return fmt.Sprintf("%s: %s", d.File, d.Detail)
	}
	return fmt.Sprintf("%s row %d col %s: got %q, want %q (%s)", d.File, d.Row, d.Column, d.Got, d.Want, d.Detail)
}

// CompareGoldenDir regenerates the figure suite and diffs it against the
// blessed CSVs in dir. Numeric columns compare within their per-column
// relative tolerance; everything else must match exactly. It returns the
// list of divergences (empty = pass).
func (s *Suite) CompareGoldenDir(dir string) ([]GoldenDiff, error) {
	files, err := s.GoldenFigures()
	if err != nil {
		return nil, err
	}
	var diffs []GoldenDiff
	for _, name := range sortedKeys(files) {
		blessed, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			diffs = append(diffs, GoldenDiff{File: name, Detail: fmt.Sprintf("missing blessed file: %v (re-bless with accelscore conformance -bless)", err)})
			continue
		}
		diffs = append(diffs, diffCSV(name, files[name], blessed)...)
	}
	return diffs, nil
}

// diffCSV compares a regenerated CSV against its blessed counterpart.
func diffCSV(name string, got, want []byte) []GoldenDiff {
	gotRecs, gerr := csv.NewReader(bytes.NewReader(got)).ReadAll()
	wantRecs, werr := csv.NewReader(bytes.NewReader(want)).ReadAll()
	if gerr != nil || werr != nil {
		return []GoldenDiff{{File: name, Detail: fmt.Sprintf("unparsable CSV: regenerated %v, blessed %v", gerr, werr)}}
	}
	if len(gotRecs) == 0 || len(wantRecs) == 0 {
		return []GoldenDiff{{File: name, Detail: "empty CSV"}}
	}
	header := gotRecs[0]
	if strings.Join(header, ",") != strings.Join(wantRecs[0], ",") {
		return []GoldenDiff{{File: name, Detail: fmt.Sprintf(
			"header changed: got %v, blessed %v", header, wantRecs[0])}}
	}
	if len(gotRecs) != len(wantRecs) {
		return []GoldenDiff{{File: name, Detail: fmt.Sprintf(
			"row count changed: got %d, blessed %d", len(gotRecs)-1, len(wantRecs)-1)}}
	}
	var diffs []GoldenDiff
	for r := 1; r < len(gotRecs); r++ {
		for c := range header {
			g, w := gotRecs[r][c], wantRecs[r][c]
			if g == w {
				continue
			}
			col := header[c]
			if tol, ok := goldenTolerances[col]; ok && withinTolerance(g, w, tol) {
				continue
			}
			diffs = append(diffs, GoldenDiff{
				File: name, Row: r, Column: col, Got: g, Want: w,
				Detail: "value diverged",
			})
			if len(diffs) >= 20 { // enough to diagnose; don't flood the report
				diffs = append(diffs, GoldenDiff{File: name, Detail: "further diffs truncated"})
				return diffs
			}
		}
	}
	return diffs
}

// withinTolerance parses both cells as floats and compares them with
// relative tolerance tol.
func withinTolerance(got, want string, tol float64) bool {
	g, gerr := strconv.ParseFloat(got, 64)
	w, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return false
	}
	if g == w {
		return true
	}
	scale := math.Max(math.Abs(g), math.Abs(w))
	return math.Abs(g-w) <= tol*scale
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
