package main

import (
	"fmt"
	"io"
	"os"

	"accelscore/internal/obs"
)

// runObslint validates Prometheus text expositions with the repo's strict
// linter (obs.LintPrometheus): exposition syntax, histogram invariants,
// duplicate series, and exemplar placement. CI pipes live /metrics scrapes
// through it so a malformed exposition fails the build, not the dashboard.
// No file argument reads stdin; exit status 1 with one problem per line
// when any input is dirty.
func runObslint(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("obslint", stderr)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	dirty := false
	lint := func(name string, r io.Reader) {
		probs := obs.LintPrometheus(r)
		for _, p := range probs {
			fmt.Fprintf(stderr, "%s:%s\n", name, p)
		}
		if len(probs) > 0 {
			dirty = true
		} else {
			fmt.Fprintf(stdout, "%s: ok\n", name)
		}
	}
	if fs.NArg() == 0 {
		lint("<stdin>", os.Stdin)
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		lint(path, f)
		f.Close()
	}
	if dirty {
		return errFailed
	}
	return nil
}
