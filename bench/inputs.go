package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/experiments"
	"accelscore/internal/forest"
	"accelscore/internal/storage"
	"accelscore/internal/xrand"
)

// sizes fixes how much work one query of each workload is. The full values
// are frozen: they are part of the benchmark's definition (README, "Sizing").
type sizes struct {
	higgsRows, irisRows, eventRows int
	fusedLimit                     int
}

var (
	fullSizes  = sizes{higgsRows: 50000, irisRows: 25000, eventRows: 20000, fusedLimit: 20000}
	smokeSizes = sizes{higgsRows: 5000, irisRows: 5000, eventRows: 5000, fusedLimit: 5000}
)

// pointLimits are the @limit values small_point draws from.
var pointLimits = []int{16, 64, 256}

const (
	// insertRowsPerStmt is how many rows one ingest_then_score INSERT carries.
	insertRowsPerStmt = 4
	// ingestClients is ingest_then_score's client count; client i owns
	// table events_i.
	ingestClients = 2
)

// models names every stored model; the router warms all of them at boot.
var models = []string{"higgs_rf", "higgs_small", "iris_rf"}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// clients is the number of client goroutines, each with one request in
	// flight; never more than the host's two cores.
	clients int
}

var workloads = []workload{
	{name: "small_point", clients: 2},
	{name: "scan_plain", clients: 1},
	{name: "scan_fused", clients: 1},
	{name: "ingest_then_score", clients: ingestClients},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func pointSQL(limit int) string {
	return fmt.Sprintf("EXEC sp_score_model @model='higgs_rf', @data='higgs', @limit=%d", limit)
}

const scanPlainSQL = "EXEC sp_score_model @model='iris_rf', @data='iris', @backend='CPU_SKLearn'"

func scanFusedSQL(limit int) string {
	return fmt.Sprintf("SELECT prediction, COUNT(*) FROM PREDICT(@model='higgs_rf', @data='higgs', "+
		"@backend='CPU_SKLearn', @limit=%d) WHERE lepton_eta > 0 GROUP BY prediction", limit)
}

func ingestScoreSQL(client int) string {
	return fmt.Sprintf("EXEC sp_score_model @model='higgs_small', @data='events_%d', @backend='CPU_SKLearn'", client)
}

// inputs is everything generated from the seed before any process starts.
// The tier sees it only as a data directory and as statements over HTTP.
type inputs struct {
	sz     sizes
	tables []*db.Table
	forest map[string]*forest.Forest
}

// forestSeed is fixed: the seed argument varies the data and the schedule,
// while the three models keep the shape (and so the per-query cost) the
// workloads were sized with.
const forestSeed = 1

func makeInputs(seed uint64, sz sizes) (*inputs, error) {
	in := &inputs{sz: sz, forest: map[string]*forest.Forest{}}
	for _, t := range []struct {
		name string
		data *dataset.Dataset
	}{
		{"higgs", dataset.Higgs(sz.higgsRows, seed)},
		{"iris", dataset.Iris().Replicate(sz.irisRows)},
		{"events_0", dataset.Higgs(sz.eventRows, seed+1)},
		{"events_1", dataset.Higgs(sz.eventRows, seed+2)},
	} {
		tbl, err := db.TableFromDataset(t.name, t.data)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		in.tables = append(in.tables, tbl)
	}
	// higgs_rf is trained as in BenchmarkPipelineHotPath.
	train := dataset.Higgs(1500, 9)
	for _, m := range []struct {
		name string
		data *dataset.Dataset
		cfg  forest.ForestConfig
	}{
		{"higgs_rf", train, forest.ForestConfig{NumTrees: 64, Tree: forest.TrainConfig{MaxDepth: 10}, Seed: forestSeed, Bootstrap: true}},
		{"higgs_small", train, forest.ForestConfig{NumTrees: 8, Tree: forest.TrainConfig{MaxDepth: 6}, Seed: forestSeed, Bootstrap: true}},
		{"iris_rf", dataset.Iris(), experiments.DemoForestConfig},
	} {
		f, err := forest.Train(m.data, m.cfg)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", m.name, err)
		}
		in.forest[m.name] = f
	}
	return in, nil
}

// seedDir writes the inputs as a compacted data directory the way a
// deployment would: journaled creates and model stores, one compaction, a
// clean close. Tables are only read afterwards, so the same in-memory tables
// seed every directory.
func (in *inputs) seedDir(dir string) error {
	st, d, err := storage.Open(storage.Config{Dir: dir, Sync: storage.SyncNone})
	if err != nil {
		return err
	}
	for _, t := range in.tables {
		if err := d.CreateTable(t); err != nil {
			st.Close()
			return err
		}
	}
	for _, name := range models {
		if err := d.StoreModel(name, in.forest[name]); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// schedule is the seeded part of the traffic: which @limit each small_point
// query uses and which rows each ingest client inserts.
type schedule struct {
	// limits cycles; query i of any client uses limits[i%len(limits)].
	limits []int
	// inserts[client][i] is the i-th INSERT statement of that client.
	inserts [ingestClients][]string
}

// makeSchedule draws the schedule for a run of the given total length. An
// ingest iteration cannot finish faster than its two 2 ms group-commit
// windows, which bounds how many statements a client can use.
func makeSchedule(seed uint64, total time.Duration) *schedule {
	rng := xrand.New(seed ^ 0x5eed)
	s := &schedule{limits: make([]int, 4096)}
	for i := range s.limits {
		s.limits[i] = pointLimits[rng.Intn(len(pointLimits))]
	}
	stmts := int(total/(4*time.Millisecond)) + 1
	for c := range s.inserts {
		rows := dataset.Higgs(stmts*insertRowsPerStmt, seed+100+uint64(c))
		s.inserts[c] = make([]string, stmts)
		for i := range s.inserts[c] {
			s.inserts[c][i] = insertSQL(fmt.Sprintf("events_%d", c), rows, i*insertRowsPerStmt, insertRowsPerStmt)
		}
	}
	return s
}

// insertSQL renders rows [lo, lo+n) of d as one INSERT in the events tables'
// column order: the 28 features, then the label.
func insertSQL(table string, d *dataset.Dataset, lo, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES ")
	for r := lo; r < lo+n; r++ {
		if r > lo {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for _, v := range d.Row(r) {
			sb.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(d.Y[r]))
		sb.WriteByte(')')
	}
	return sb.String()
}
