package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse compiles a plan string into rules. A plan is a semicolon-separated
// list of rules, each of the form
//
//	<backend>:<boundary>:<kind>[:<trigger>]
//
// where backend is an engine name or "*"; boundary is invoke|transfer|
// compute|*; kind is busy|corrupt|crash|hang=<duration>; and the optional
// trigger is one of p=<0..1], every=<n>, once=<n> or first=<n> (default:
// fire on every match). Examples:
//
//	GPU_HB:compute:busy:p=0.2        20% of GPU_HB kernel launches are busy
//	GPU_HB:invoke:hang=5s:once=7     the 7th GPU_HB invocation stalls 5s
//	FPGA:transfer:corrupt:every=10   every 10th FPGA transfer corrupts
//	GPU_HB:invoke:crash:first=3      the first 3 GPU_HB invocations crash
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("faults: rule %q: %w", part, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: empty plan %q", spec)
	}
	return rules, nil
}

// parseRule compiles one backend:boundary:kind[:trigger] clause.
func parseRule(s string) (Rule, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 3 || len(fields) > 4 {
		return Rule{}, fmt.Errorf("want backend:boundary:kind[:trigger]")
	}
	r := Rule{Backend: strings.TrimSpace(fields[0]), Boundary: Boundary(strings.TrimSpace(fields[1]))}

	kind := strings.TrimSpace(fields[2])
	if rest, ok := strings.CutPrefix(kind, string(KindHang)+"="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil {
			return Rule{}, fmt.Errorf("bad hang duration %q: %v", rest, err)
		}
		r.Kind, r.HangFor = KindHang, d
	} else {
		r.Kind = Kind(kind)
	}

	if len(fields) == 4 {
		trig := strings.TrimSpace(fields[3])
		key, val, ok := strings.Cut(trig, "=")
		if !ok {
			return Rule{}, fmt.Errorf("bad trigger %q (want p=, every=, once= or first=)", trig)
		}
		switch key {
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return Rule{}, fmt.Errorf("bad probability %q (want 0 < p <= 1)", val)
			}
			r.P = p
		case "every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad every count %q (want >= 1)", val)
			}
			r.EveryN = n
		case "once":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad once index %q (want >= 1)", val)
			}
			r.Once = n
		case "first":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad first count %q (want >= 1)", val)
			}
			r.First = n
		default:
			return Rule{}, fmt.Errorf("unknown trigger %q", key)
		}
	}
	if err := r.validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// String renders the rule back into plan syntax.
func (r Rule) String() string {
	kind := string(r.Kind)
	if r.Kind == KindHang {
		kind = fmt.Sprintf("hang=%v", r.HangFor)
	}
	s := fmt.Sprintf("%s:%s:%s", r.Backend, r.Boundary, kind)
	switch {
	case r.P > 0:
		s += fmt.Sprintf(":p=%v", r.P)
	case r.EveryN > 0:
		s += fmt.Sprintf(":every=%d", r.EveryN)
	case r.Once > 0:
		s += fmt.Sprintf(":once=%d", r.Once)
	case r.First > 0:
		s += fmt.Sprintf(":first=%d", r.First)
	}
	return s
}
