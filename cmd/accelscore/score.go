package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"text/tabwriter"

	"accelscore/internal/backend"
	"accelscore/internal/core"
	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
	"accelscore/internal/hw"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
	"accelscore/internal/platform"
	"accelscore/internal/sim"
)

// runScore trains a random forest and scores one replicated batch. By
// default the batch goes straight to one engine (or, with -compare, to every
// engine) and the simulated latency breakdown is printed; with -pipeline the
// model and the rows are stored in the mini-DBMS and EXEC sp_score_model
// runs end to end, printing the Fig. 11 stage breakdown over the engine's
// Fig. 7 one. Both paths print a CRC of the predictions: it is the same
// number whichever path and backend produced them.
func runScore(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("score", stderr)
	mf := addModelFlags(fs)
	records := fs.Int("records", 10000, "records to score")
	backendName := fs.String("backend", "CPU_SKLearn", "backend to score on; 'auto' asks the advisor (pipeline only)")
	compare := fs.Bool("compare", false, "score on every engine and compare simulated latencies")
	viaPipeline := fs.Bool("pipeline", false, "score through the DBMS pipeline (EXEC sp_score_model) instead of calling the engine")
	tight := fs.Bool("tight", false, "use the tightly-integrated (in-process) pipeline runtime; implies -pipeline")
	tracePath := fs.String("trace", "", "write the query's Chrome trace-event JSON to this file; implies -pipeline")
	if err := parse(fs, args); err != nil {
		return err
	}
	usePipeline := *viaPipeline || *tight || *tracePath != "" || *backendName == "auto"
	if *compare && usePipeline {
		return usagef(fs, "-compare calls the engines directly; drop -pipeline, -tight, -trace and -backend auto")
	}

	f, train, err := mf.train("rf", 1)
	if err != nil {
		return err
	}
	stats := f.ComputeStats()
	fmt.Fprintf(stdout, "model: %d trees, max depth %d, %d nodes, avg path %.1f, training accuracy %.3f\n",
		stats.Trees, stats.MaxDepth, stats.TotalNodes, stats.AvgPathLength, f.Accuracy(train))
	data := train.Replicate(*records)
	tb := platform.New()

	switch {
	case *compare:
		return compareEngines(stdout, tb, &backend.Request{Forest: f, Data: data})
	case usePipeline:
		return scoreThroughPipeline(stdout, stderr, tb, f, data, *backendName, *tight, *tracePath)
	}
	b, ok := tb.Registry.Get(*backendName)
	if !ok {
		return fmt.Errorf("backend %q not registered (have %v)", *backendName, tb.Registry.Names())
	}
	res, err := b.Score(&backend.Request{Forest: f, Data: data})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nscored %d records on %s (predictions crc32 %08x)\n\n",
		len(res.Predictions), b.Name(), predictionsCRC(res.Predictions))
	fmt.Fprintln(stdout, res.Timeline.Aggregate())
	fmt.Fprintf(stdout, "throughput: %.3f M records/s\n", res.Throughput()/1e6)
	return nil
}

func compareEngines(stdout io.Writer, tb *platform.Testbed, req *backend.Request) error {
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "backend\tsimulated latency\tthroughput (M/s)\tO\tL\tC")
	for _, b := range tb.AllBackends() {
		res, err := b.Score(req)
		if err != nil {
			fmt.Fprintf(w, "%s\tunsupported: %v\t\t\t\t\n", b.Name(), err)
			continue
		}
		olc := core.Decompose(&res.Timeline)
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%s\t%s\t%s\n",
			b.Name(), sim.FormatDuration(res.Latency()), res.Throughput()/1e6,
			sim.FormatDuration(olc.O), sim.FormatDuration(olc.L), sim.FormatDuration(olc.C))
	}
	return w.Flush()
}

func scoreThroughPipeline(stdout, stderr io.Writer, tb *platform.Testbed, f *forest.Forest, data *dataset.Dataset,
	backendName string, tight bool, tracePath string) error {
	database := db.New()
	tbl, err := db.TableFromDataset("scoring_data", data)
	if err != nil {
		return err
	}
	if err := database.CreateTable(tbl); err != nil {
		return err
	}
	if err := database.StoreModel("rf_model", f); err != nil {
		return err
	}
	runtime := hw.DefaultRuntime()
	if tight {
		runtime = hw.TightlyIntegratedRuntime()
	}
	p := &pipeline.Pipeline{DB: database, Runtime: runtime, Registry: tb.Registry, Advisor: tb.Advisor}
	if tracePath != "" {
		p.Obs = obs.NewObserver()
	}

	query := fmt.Sprintf("EXEC sp_score_model @model = 'rf_model', @data = 'scoring_data', @backend = '%s'", backendName)
	fmt.Fprintln(stdout, "executing:", query)
	res, err := p.ExecQuery(query)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nscored %d records on %s (pipeline: %s; predictions crc32 %08x)\n\n",
		len(res.Predictions), res.Backend, runtime.Name, predictionsCRC(res.Predictions))
	fmt.Fprintln(stdout, "end-to-end query breakdown (Fig. 11):")
	fmt.Fprintln(stdout, res.Timeline.Aggregate())
	fmt.Fprintln(stdout, "scoring-stage component breakdown (Fig. 7):")
	fmt.Fprintln(stdout, res.ScoringDetail.Aggregate())
	fmt.Fprintf(stdout, "simulated end-to-end latency: %s, scoring throughput: %.2f M records/s\n",
		sim.FormatDuration(res.Timeline.Total()),
		sim.Throughput(len(res.Predictions), res.ScoringDetail.Total())/1e6)
	if tracePath != "" {
		return writeTrace(p.Obs, tracePath, stdout, stderr)
	}
	return nil
}

func predictionsCRC(preds []int) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, p := range preds {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return h.Sum32()
}
