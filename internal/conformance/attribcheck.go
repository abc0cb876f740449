package conformance

import (
	"fmt"
	"slices"

	"accelscore/internal/backend"
	"accelscore/internal/db"
	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// attributionChecks proves resource attribution is pure observation: the
// same query scored on an observed (so measured) pipeline must reproduce the
// oracle's predictions bit for bit, and the recorded costs must be
// well-formed — canonical stage order, both transfer legs charged, and a
// retained trace whose measured spans are the result's three measured rows.
func (r *Runner) attributionChecks(rep *Report, c Case, ref *Reference) {
	database := db.New()
	tbl, err := db.TableFromDataset("scoring_input", c.Data)
	if err != nil {
		rep.fail(c.Name, "", "attrib-setup", err.Error())
		return
	}
	if err := database.CreateTable(tbl); err != nil {
		rep.fail(c.Name, "", "attrib-setup", err.Error())
		return
	}
	if err := database.StoreModelBlob("m", c.Blob); err != nil {
		rep.fail(c.Name, "", "attrib-setup", err.Error())
		return
	}
	reg := backend.NewRegistry()
	for _, eng := range r.Engines {
		if err := reg.Register(eng); err != nil {
			rep.fail(c.Name, eng.Name(), "attrib-setup", err.Error())
			return
		}
	}

	for _, eng := range r.Engines {
		name := eng.Name()
		o := obs.NewObserver()
		p := &pipeline.Pipeline{
			DB:       database,
			Runtime:  r.Runtime,
			Registry: reg,
			Cache:    pipeline.NewModelCache(4),
			Obs:      o,
		}
		query := fmt.Sprintf("EXEC sp_score_model @model = 'm', @data = 'scoring_input', @backend = '%s'", name)
		res, err := p.ExecQuery(query)
		if err != nil {
			rep.skip(c.Name, name, "attrib", err.Error())
			continue
		}
		if d := firstDiff(res.Predictions, ref.Predictions); d >= 0 {
			rep.fail(c.Name, name, "attrib",
				"attribution changed a prediction: "+mismatchDetail(d, res.Predictions[d], ref))
			continue
		}
		if msg := attributionMismatch(res); msg != "" {
			rep.fail(c.Name, name, "attrib", msg)
			continue
		}
		tr, ok := o.Tracer.Get(res.TraceID)
		if !ok {
			rep.fail(c.Name, name, "attrib", "attributed query retained no trace")
			continue
		}
		var spans []obs.StageCost
		for _, w := range tr.Snapshot().WallSpans {
			if w.Cost.Stage != "" {
				spans = append(spans, w.Cost)
			}
		}
		if rows := res.Attribution[1:4]; !slices.Equal(spans, rows) {
			rep.fail(c.Name, name, "attrib",
				fmt.Sprintf("trace's measured spans %+v differ from the result's measured rows %+v", spans, rows))
			continue
		}
		rep.pass(c.Name, name, "attrib")
	}
}

// attributionMismatch validates the shape of a query's recorded costs,
// returning "" when consistent.
func attributionMismatch(res *pipeline.QueryResult) string {
	want := []string{
		pipeline.StageTransferIn,
		pipeline.StageModelPreproc,
		pipeline.StageModelScoring,
		pipeline.StagePostprocessing,
		pipeline.StageTransferOut,
	}
	if len(res.Attribution) != len(want) {
		return fmt.Sprintf("attribution has %d stages, want %d", len(res.Attribution), len(want))
	}
	for i, w := range want {
		if res.Attribution[i].Stage != w {
			return fmt.Sprintf("attribution stage %d is %q, want %q", i, res.Attribution[i].Stage, w)
		}
	}
	if res.Attribution[0].BytesMoved <= 0 {
		return "inbound transfer leg charged no bytes"
	}
	if res.Attribution[len(want)-1].BytesMoved <= 0 {
		return "outbound transfer leg charged no bytes"
	}
	return ""
}
