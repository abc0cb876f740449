package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"accelscore/internal/experiments"
	"accelscore/internal/obs"
)

// runRepro regenerates the tables and figures of the paper's evaluation
// section and writes the renderings to stdout or a directory. -trace records
// the pipeline queries run while building them: the Fig. 11 estimates route
// through pipeline.Estimate, so -fig 11 (or all) yields one trace per
// table/backend pair.
func runRepro(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("repro", stderr)
	fig := fs.String("fig", "all", "which figure to regenerate: 1, 7, 8, 9, 10, 11, headline, ext, report, or all")
	out := fs.String("out", "", "directory to write per-figure .txt files (default: stdout)")
	csvOut := fs.Bool("csv", false, "also write machine-readable .csv files (requires -out)")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON of the pipeline queries run while building figures")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *csvOut && *out == "" {
		return fmt.Errorf("-csv requires -out")
	}
	s := experiments.NewSuite()
	if *tracePath != "" {
		s.Pipe.Obs = obs.NewObserver()
	}
	sections, err := build(s, *fig, *csvOut)
	if err != nil {
		return err
	}
	if *tracePath != "" {
		if err := writeTrace(s.Pipe.Obs, *tracePath, stdout, stderr); err != nil {
			return err
		}
	}
	if *out == "" {
		for _, sec := range sections {
			if !sec.csv {
				fmt.Fprintln(stdout, sec.body)
			}
		}
		return nil
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, sec := range sections {
		path := filepath.Join(*out, sec.file)
		if err := os.WriteFile(path, []byte(sec.body), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return nil
}

type section struct {
	file string
	body string
	csv  bool
}

func build(s *experiments.Suite, fig string, withCSV bool) ([]section, error) {
	var out []section
	want := func(name string) bool { return fig == "all" || fig == name }
	addCSV := func(file string, write func(io.Writer) error) error {
		if !withCSV {
			return nil
		}
		var buf strings.Builder
		if err := write(&buf); err != nil {
			return err
		}
		out = append(out, section{file: file, body: buf.String(), csv: true})
		return nil
	}

	if want("1") {
		r, err := s.Fig1()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "fig1.txt", body: experiments.RenderFig1(r)})
	}
	if want("7") {
		rows, err := s.Fig7()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "fig7.txt", body: experiments.RenderFig7(rows)})
	}
	if want("8") {
		for _, shape := range []experiments.DatasetShape{experiments.IrisShape, experiments.HiggsShape} {
			r, err := s.Fig8(shape)
			if err != nil {
				return nil, err
			}
			out = append(out, section{file: fmt.Sprintf("fig8_%s.txt", shape.Name), body: experiments.RenderFig8(r)})
			if err := addCSV(fmt.Sprintf("fig8_%s.csv", shape.Name), func(w io.Writer) error { return experiments.WriteFig8CSV(w, r) }); err != nil {
				return nil, err
			}
		}
	}
	if want("9") {
		panels, err := s.Fig9()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "fig9.txt", body: experiments.RenderFig9(panels)})
		if err := addCSV("fig9.csv", func(w io.Writer) error { return experiments.WriteFig9CSV(w, panels) }); err != nil {
			return nil, err
		}
	}
	if want("10") {
		panels, err := s.Fig10()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "fig10.txt", body: experiments.RenderFig10(panels)})
		if err := addCSV("fig10.csv", func(w io.Writer) error { return experiments.WriteFig10CSV(w, panels) }); err != nil {
			return nil, err
		}
	}
	if want("11") {
		rows, err := s.Fig11()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "fig11.txt", body: experiments.RenderFig11(rows)})
		if err := addCSV("fig11.csv", func(w io.Writer) error { return experiments.WriteFig11CSV(w, rows) }); err != nil {
			return nil, err
		}
	}
	if want("headline") {
		hs, err := s.Headlines()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "headline.txt", body: experiments.RenderHeadlines(hs)})
	}
	if want("report") {
		md, _, err := s.Report()
		if err != nil {
			return nil, err
		}
		out = append(out, section{file: "report.md", body: md})
	}
	if want("ext") {
		sc, err := s.SchedulerExperiment(500, 1)
		if err != nil {
			return nil, err
		}
		fits, err := s.LogCAExperiment()
		if err != nil {
			return nil, err
		}
		sens, err := s.Sensitivity([]float64{0.5, 1, 2})
		if err != nil {
			return nil, err
		}
		fpgaRows, cpuRows, err := s.ScaleOut()
		if err != nil {
			return nil, err
		}
		body := experiments.RenderScheduler(sc) + "\n" +
			experiments.RenderLogCA(fits) + "\n" +
			experiments.RenderSensitivity(sens) + "\n" +
			experiments.RenderScaleOut(fpgaRows, cpuRows)
		out = append(out, section{file: "extensions.txt", body: body})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
	return out, nil
}
