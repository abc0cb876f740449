// Command accelscore is the one-shot front door to the library: every
// figure, one scoring operation, the scheduling simulator, RFX model files,
// the conformance gate and the /metrics linter behind one verb each.
//
// Usage:
//
//	accelscore repro       [-fig 1|7|8|9|10|11|headline|ext|report|all] [-out DIR] [-csv] [-trace FILE]
//	accelscore score       [-dataset IRIS|HIGGS] [-trees N] [-depth N] [-records N] [-backend NAME|auto]
//	                       [-compare | -pipeline [-tight] [-trace FILE]]
//	accelscore sched       [-queries N] [-seed N] [-interarrival DUR] [-min N] [-max N] [-trace] [-save FILE] [-load FILE]
//	accelscore model       train -o FILE [-dataset IRIS|HIGGS] [-trees N] [-depth N] [-family rf|gbt] [-seed N]
//	accelscore model       info|validate FILE
//	accelscore model       dot FILE [-tree N]
//	accelscore conformance [-short] [-golden DIR] [-report FILE] | -bless [-golden DIR]
//	accelscore obslint     [FILE...]   (no FILE reads stdin)
//
// The long-running processes — serve, router, loadgen, dbsh — stay their own
// binaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"accelscore/internal/dataset"
	"accelscore/internal/forest"
	"accelscore/internal/obs"
)

// A verb that has already printed what went wrong returns one of these and
// run adds nothing: errFailed (conformance divergences, lint problems) is
// exit 1, errUsage (a rejected command line, reported with the verb's flags)
// is exit 2.
var (
	errFailed = errors.New("failed")
	errUsage  = errors.New("usage")
)

type verb struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var verbs = []verb{
	{"repro", "regenerate the paper's figures and tables (Fig. 1, 7-11, headline, ext, report)", runRepro},
	{"score", "train a forest and score one batch: on an engine, or through the DBMS pipeline", runScore},
	{"sched", "simulate a query stream under the offload-placement policies", runSched},
	{"model", "RFX model files: train, info, dot, validate", runModel},
	{"conformance", "cross-engine differential matrix + golden-figure comparison", runConformance},
	{"obslint", "lint a Prometheus text exposition", runObslint},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one verb and maps its error to the exit status: 0 on
// success or -h, 2 on a usage error, 1 on anything else.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name != args[0] {
				continue
			}
			err := v.run(args[1:], stdout, stderr)
			switch {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			case !errors.Is(err, errFailed):
				fmt.Fprintf(stderr, "accelscore %s: %v\n", v.name, err)
			}
			return 1
		}
		fmt.Fprintf(stderr, "accelscore: unknown verb %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: accelscore <verb> [flags]   (accelscore <verb> -h lists a verb's flags)")
	for _, v := range verbs {
		fmt.Fprintf(stderr, "  %-12s %s\n", v.name, v.summary)
	}
	return 2
}

// newFlags returns a verb's flag set: errors come back to run instead of
// exiting, and -h output goes where the caller's stderr goes.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("accelscore "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// usagef reports a command line the verb rejects the way the flag package
// reports one it rejects: the reason, then the verb's flags.
func usagef(fs *flag.FlagSet, format string, a ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", a...)
	fs.Usage()
	return errUsage
}

// parseFlags parses args; what is left in fs.Args() is the verb's to read.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errUsage
}

// parse is parseFlags for a verb that takes no positional arguments.
func parse(fs *flag.FlagSet, args []string) error {
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef(fs, "unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// modelFlags are the "dataset → trained forest" flags score and model train
// share.
type modelFlags struct {
	dataset      *string
	trees, depth *int
}

func addModelFlags(fs *flag.FlagSet) modelFlags {
	return modelFlags{
		dataset: fs.String("dataset", "IRIS", "training dataset: IRIS or HIGGS"),
		trees:   fs.Int("trees", 16, "number of trees"),
		depth:   fs.Int("depth", 10, "maximum tree depth"),
	}
}

// train loads the dataset (synthetic HIGGS is drawn from seed) and fits the
// model family on it.
func (m modelFlags) train(family string, seed uint64) (*forest.Forest, *dataset.Dataset, error) {
	var data *dataset.Dataset
	switch *m.dataset {
	case "IRIS":
		data = dataset.Iris()
	case "HIGGS":
		data = dataset.Higgs(4000, seed)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (use IRIS or HIGGS)", *m.dataset)
	}
	var f *forest.Forest
	var err error
	switch family {
	case "rf":
		f, err = forest.Train(data, forest.ForestConfig{
			NumTrees:  *m.trees,
			Tree:      forest.TrainConfig{MaxDepth: *m.depth},
			Seed:      seed,
			Bootstrap: true,
		})
	case "gbt":
		f, err = forest.TrainBoosted(data, forest.BoostConfig{NumTrees: *m.trees, MaxDepth: *m.depth, Seed: seed})
	default:
		return nil, nil, fmt.Errorf("unknown family %q (use rf or gbt)", family)
	}
	return f, data, err
}

// writeTrace dumps every trace the observer retained as one Chrome
// trace-event file.
func writeTrace(o *obs.Observer, path string, stdout, stderr io.Writer) error {
	n := o.Tracer.Len()
	if n == 0 {
		fmt.Fprintln(stderr, "accelscore: warning: no pipeline queries ran; trace will be empty")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d traces to %s (open in chrome://tracing or Perfetto)\n", n, path)
	return nil
}
