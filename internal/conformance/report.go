package conformance

import (
	"fmt"
	"sort"
	"strings"
)

// Status is the outcome of one conformance check.
type Status int

const (
	// Pass means the check ran and the engine agreed with the oracle.
	Pass Status = iota
	// Skip means the engine rejected the configuration (e.g. RAPIDS on a
	// multi-class model, the plain FPGA on >10-level trees) — a legitimate,
	// documented limitation, not a divergence.
	Skip
	// Fail means the engine ran and disagreed with the oracle, or violated
	// a metamorphic or timing invariant.
	Fail
)

// String returns the report label.
func (s Status) String() string {
	switch s {
	case Pass:
		return "pass"
	case Skip:
		return "skip"
	default:
		return "FAIL"
	}
}

// Finding is the outcome of one (case, engine, check) cell of the matrix.
type Finding struct {
	Case   string
	Engine string // empty for engine-independent (kernel/oracle) checks
	Check  string
	Status Status
	Detail string
}

// Report accumulates the whole matrix.
type Report struct {
	Findings []Finding
	Cases    int
}

func (r *Report) add(caseName, engine, check string, status Status, detail string) {
	r.Findings = append(r.Findings, Finding{
		Case: caseName, Engine: engine, Check: check, Status: status, Detail: detail,
	})
}

func (r *Report) pass(caseName, engine, check string) {
	r.add(caseName, engine, check, Pass, "")
}

func (r *Report) skip(caseName, engine, check, why string) {
	r.add(caseName, engine, check, Skip, why)
}

func (r *Report) fail(caseName, engine, check, detail string) {
	r.add(caseName, engine, check, Fail, detail)
}

// Failures returns the failed findings.
func (r *Report) Failures() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Status == Fail {
			out = append(out, f)
		}
	}
	return out
}

// OK reports whether every check passed or was legitimately skipped.
func (r *Report) OK() bool { return len(r.Failures()) == 0 }

// Summary renders a per-engine pass/skip/fail table followed by the detail
// of every failure — the accelscore conformance output.
func (r *Report) Summary() string {
	type tally struct{ pass, skip, fail int }
	tallies := make(map[string]*tally)
	var engines []string
	for _, f := range r.Findings {
		name := f.Engine
		if name == "" {
			name = "(oracle/kernel)"
		}
		t, ok := tallies[name]
		if !ok {
			t = &tally{}
			tallies[name] = t
			engines = append(engines, name)
		}
		switch f.Status {
		case Pass:
			t.pass++
		case Skip:
			t.skip++
		default:
			t.fail++
		}
	}
	sort.Strings(engines)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Conformance matrix: %d cases, %d checks\n\n", r.Cases, len(r.Findings))
	fmt.Fprintf(&sb, "%-18s %6s %6s %6s\n", "engine", "pass", "skip", "fail")
	for _, e := range engines {
		t := tallies[e]
		fmt.Fprintf(&sb, "%-18s %6d %6d %6d\n", e, t.pass, t.skip, t.fail)
	}
	failures := r.Failures()
	if len(failures) == 0 {
		sb.WriteString("\nAll engines agree with the reference oracle.\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "\n%d FAILURE(S):\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(&sb, "  [%s / %s] %s: %s\n", f.Case, f.Engine, f.Check, f.Detail)
	}
	return sb.String()
}
