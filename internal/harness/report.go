package harness

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"accelscore/internal/httpapi"
	"accelscore/internal/kernel"
)

// ArtifactSchemaVersion versions the shared envelope of every JSON artifact
// loadgen writes (BENCH_*.json, CHAOS_report.json). Bump it when an envelope
// or report field changes meaning, so downstream tooling can reject
// artifacts it does not understand.
const ArtifactSchemaVersion = 1

// Envelope returns the fields every loadgen JSON artifact shares: schema
// version, artifact kind, generation timestamp, the git revision that
// produced the numbers, and the host shape, with the walk the scoring
// kernel runs on it (kernel.Walk). Callers merge their
// report-specific keys on top.
func Envelope(kind string) map[string]any {
	return map[string]any{
		"schema_version": ArtifactSchemaVersion,
		"kind":           kind,
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"git_describe":   httpapi.GitDescribe(),
		"host": map[string]any{
			"goos":        runtime.GOOS,
			"goarch":      runtime.GOARCH,
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"num_cpu":     runtime.NumCPU(),
			"kernel_walk": kernel.Walk(),
		},
	}
}

// Host renders the host shape for a markdown report's "Measured by" line.
func Host() string {
	return fmt.Sprintf("%s/%s, GOMAXPROCS=%d (%d CPU)",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// WriteJSON writes v pretty-printed to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteReport writes a mode's two artifacts: doc as JSON to jsonPath, and
// the rendered markdown to results/<mdName>.
func WriteReport(jsonPath string, doc any, mdName string, md *strings.Builder) error {
	if err := WriteJSON(jsonPath, doc); err != nil {
		return err
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	mdPath := filepath.Join("results", mdName)
	if err := os.WriteFile(mdPath, []byte(md.String()), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s and %s", mdPath, jsonPath)
	return nil
}

// Col is one markdown table column: its heading in alignment shorthand
// ("name" default, "name:" right-aligned, ":name" left-aligned), then the
// fmt verb that renders its cells.
type Col [2]string

// Table renders one markdown table into a report.
type Table struct {
	sb   *strings.Builder
	cols []Col
}

// NewTable appends the heading and alignment rows for cols to sb.
func NewTable(sb *strings.Builder, cols []Col) *Table {
	var head, rule strings.Builder
	for _, c := range cols {
		name, align := c[0], "---"
		switch {
		case strings.HasSuffix(name, ":"):
			name, align = strings.TrimSuffix(name, ":"), "---:"
		case strings.HasPrefix(name, ":"):
			name, align = strings.TrimPrefix(name, ":"), ":---"
		}
		head.WriteString("| " + name + " ")
		rule.WriteString("|" + align)
	}
	sb.WriteString(head.String() + "|\n" + rule.String() + "|\n")
	return &Table{sb: sb, cols: cols}
}

// Row appends one row, each value rendered by its column's verb.
func (t *Table) Row(values ...any) {
	for i, c := range t.cols {
		fmt.Fprintf(t.sb, "| "+c[1]+" ", values[i])
	}
	t.sb.WriteString("|\n")
}
