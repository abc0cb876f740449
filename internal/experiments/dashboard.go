package experiments

import (
	"fmt"
	"html/template"
	"log"
	"net/http"
	"strings"
	"sync"

	"accelscore/internal/obs"
)

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html>
<head>
<title>accelscore — {{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2rem; max-width: 100rem; }
pre  { background: #f6f6f6; padding: 1rem; overflow-x: auto; }
nav a { margin-right: 1rem; }
</style>
</head>
<body>
<h1>accelscore</h1>
<p>Reproduction of "Hardware Acceleration for DBMS ML Scoring: Is It Worth
the Overheads?" (ISPASS 2021). Every figure below is regenerated live from
the calibrated simulators.</p>
<nav>{{range .Nav}}<a href="{{.Href}}">{{.Label}}</a>{{end}}</nav>
<h2>{{.Title}}</h2>
<pre>{{.Body}}</pre>
</body>
</html>`))

type navEntry struct {
	Href  string
	Label string
}

var nav = []navEntry{
	{"/fig/headline", "Headlines"},
	{"/fig/7", "Fig. 7"},
	{"/fig/8", "Fig. 8"},
	{"/fig/9", "Fig. 9"},
	{"/fig/10", "Fig. 10"},
	{"/fig/11", "Fig. 11"},
	{"/fig/ext", "Extensions"},
	{"/fig/hotpath", "Hot path"},
	{"/query", "Run query"},
	{"/debug/queries", "Recent queries"},
	{"/metrics", "Metrics"},
}

// WritePage renders body as preformatted text under the dashboard's title
// and navigation bar; cmd/serve's /query page uses it too.
func WritePage(w http.ResponseWriter, title, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := pageTmpl.Execute(w, struct {
		Title string
		Body  string
		Nav   []navEntry
	}{Title: title, Body: body, Nav: nav})
	if err != nil {
		log.Printf("render: %v", err)
	}
}

// Dashboard is the figure browser cmd/serve mounts at / and /fig/: each
// paper figure regenerates on request and renders as preformatted text, so
// results can be browsed without a terminal.
type Dashboard struct {
	mu    sync.Mutex // guards suite mutation in build(); never held across the hot-path demo
	suite *Suite
	obs   *obs.Observer
	// demoRecords sizes the hot-path page's freshly built demos.
	demoRecords int
}

// NewDashboard builds the figure browser. Its pipelines report to o, so the
// queries a page runs land in the host's /metrics and /debug/queries too.
func NewDashboard(o *obs.Observer, demoRecords int) *Dashboard {
	d := &Dashboard{suite: NewSuite(), obs: o, demoRecords: demoRecords}
	d.suite.Pipe.Obs = o
	return d
}

// ServeHTTP serves the index at / and one figure at /fig/<name>.
func (d *Dashboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fig, ok := strings.CutPrefix(r.URL.Path, "/fig/")
	switch {
	case ok:
		body, err := d.build(fig)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		WritePage(w, "Figure "+fig, body)
	case r.URL.Path != "/":
		http.NotFound(w, r)
	default:
		WritePage(w, "Index", "Pick a figure from the navigation bar above.\n\n"+
			"Figures 7-11 mirror the paper's evaluation section; Extensions holds\n"+
			"the dynamic-scheduling, LogCA and calibration-sensitivity studies.\n\n"+
			"Observability: \"Run query\" scores the demo table through the\n"+
			"instrumented pipeline; /metrics exposes Prometheus counters and\n"+
			"latency histograms; /debug/queries lists recent queries with their\n"+
			"per-stage breakdowns and downloadable Chrome traces.")
	}
}

// build regenerates one figure's text rendering. Callers hold no lock; build
// serializes access to the shared suite itself.
func (d *Dashboard) build(fig string) (string, error) {
	if fig == "hotpath" {
		// A fresh demo per request keeps the cold/warm contrast visible; it
		// shares the dashboard's observer so its queries land in /metrics
		// and /debug/queries too.
		demo, err := NewDemo(d.demoRecords)
		if err != nil {
			return "", err
		}
		demo.Pipe.Obs = d.obs
		return demo.HotPathReport()
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	switch fig {
	case "7":
		rows, err := d.suite.Fig7()
		if err != nil {
			return "", err
		}
		return RenderFig7(rows), nil
	case "8":
		var sb strings.Builder
		for _, shape := range []DatasetShape{IrisShape, HiggsShape} {
			res, err := d.suite.Fig8(shape)
			if err != nil {
				return "", err
			}
			sb.WriteString(RenderFig8(res))
			sb.WriteString("\n")
		}
		return sb.String(), nil
	case "9":
		panels, err := d.suite.Fig9()
		if err != nil {
			return "", err
		}
		return RenderFig9(panels), nil
	case "10":
		panels, err := d.suite.Fig10()
		if err != nil {
			return "", err
		}
		return RenderFig10(panels), nil
	case "11":
		rows, err := d.suite.Fig11()
		if err != nil {
			return "", err
		}
		return RenderFig11(rows), nil
	case "headline":
		hs, err := d.suite.Headlines()
		if err != nil {
			return "", err
		}
		return RenderHeadlines(hs), nil
	case "ext":
		sc, err := d.suite.SchedulerExperiment(300, 1)
		if err != nil {
			return "", err
		}
		fits, err := d.suite.LogCAExperiment()
		if err != nil {
			return "", err
		}
		sens, err := d.suite.Sensitivity([]float64{0.5, 1, 2})
		if err != nil {
			return "", err
		}
		return RenderScheduler(sc) + "\n" +
			RenderLogCA(fits) + "\n" +
			RenderSensitivity(sens), nil
	default:
		return "", fmt.Errorf("unknown figure %q", fig)
	}
}
