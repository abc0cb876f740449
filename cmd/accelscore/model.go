package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"accelscore/internal/forest"
	"accelscore/internal/model"
)

const modelUsage = `usage:
  accelscore model train -o FILE [-dataset IRIS|HIGGS] [-trees N] [-depth N] [-family rf|gbt] [-seed N]
  accelscore model info FILE
  accelscore model dot FILE [-tree N]
  accelscore model validate FILE`

// runModel works with RFX model files on disk: train new models, inspect
// stored ones, export Graphviz renderings, and validate blobs.
func runModel(args []string, stdout, stderr io.Writer) error {
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	switch sub {
	case "train":
		return modelTrain(args[1:], stdout, stderr)
	case "info":
		return modelInfo(args[1:], stdout, stderr)
	case "dot":
		return modelDot(args[1:], stdout, stderr)
	case "validate":
		return modelValidate(args[1:], stdout, stderr)
	case "-h", "-help", "--help":
		fmt.Fprintln(stderr, modelUsage)
		return flag.ErrHelp
	}
	fmt.Fprintln(stderr, modelUsage)
	return errUsage
}

func modelTrain(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("model train", stderr)
	out := fs.String("o", "", "output RFX file (required)")
	mf := addModelFlags(fs)
	family := fs.String("family", "rf", "model family: rf or gbt")
	seed := fs.Uint64("seed", 1, "training seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return usagef(fs, "train requires -o FILE")
	}
	f, data, err := mf.train(*family, *seed)
	if err != nil {
		return err
	}
	blob, err := model.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes) — %s, training accuracy %.3f\n",
		*out, len(blob), model.Summary(f), f.Accuracy(data))
	return nil
}

// loadModel parses a sub-verb's command line in the order its usage prints —
// FILE, then flags — as well as flags first (the flag package alone stops
// at the first positional), and reads the one model file it names.
func loadModel(fs *flag.FlagSet, args []string) (path string, f *forest.Forest, blob []byte, err error) {
	if err := parseFlags(fs, args); err != nil {
		return "", nil, nil, err
	}
	if fs.NArg() == 0 {
		return "", nil, nil, usagef(fs, "%s requires exactly one FILE", fs.Name())
	}
	path = fs.Arg(0)
	if err := parse(fs, fs.Args()[1:]); err != nil {
		return "", nil, nil, err
	}
	if blob, err = os.ReadFile(path); err != nil {
		return "", nil, nil, err
	}
	if f, err = model.Unmarshal(blob); err != nil {
		return "", nil, nil, err
	}
	return path, f, blob, nil
}

func modelInfo(args []string, stdout, stderr io.Writer) error {
	_, f, blob, err := loadModel(newFlags("model info", stderr), args)
	if err != nil {
		return err
	}
	stats := f.ComputeStats()
	fmt.Fprintln(stdout, model.Summary(f))
	fmt.Fprintf(stdout, "blob size: %d bytes\n", len(blob))
	fmt.Fprintf(stdout, "avg path length: %.2f\n", stats.AvgPathLength)
	fmt.Fprintf(stdout, "features: %v\n", f.FeatureNames)
	fmt.Fprintf(stdout, "classes: %v\n", f.ClassNames)
	if f.Kind == forest.Boosted {
		fmt.Fprintf(stdout, "base score (log-odds): %.4f\n", f.BaseScore)
	}
	fmt.Fprintln(stdout, "\ntop features by importance:")
	for i, r := range f.RankedImportance() {
		if i == 5 {
			break
		}
		fmt.Fprintf(stdout, "  %-28s %.3f\n", r.Name, r.Importance)
	}
	return nil
}

func modelDot(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("model dot", stderr)
	tree := fs.Int("tree", 0, "tree index to render")
	_, f, _, err := loadModel(fs, args)
	if err != nil {
		return err
	}
	return model.WriteDot(stdout, f, *tree)
}

func modelValidate(args []string, stdout, stderr io.Writer) error {
	path, f, blob, err := loadModel(newFlags("model validate", stderr), args)
	if err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: valid RFX blob (%d bytes, CRC ok) — %s\n", path, len(blob), model.Summary(f))
	return nil
}
