// Restart chaos: kill the serving process with SIGKILL in the middle of a
// write-heavy load, restart it on the same data directory, and verify the
// durability contract end to end over HTTP:
//
//   - no acknowledged write is lost (every 200 from /sql survives the kill);
//   - no phantom rows appear (every recovered synthetic row was sent by a
//     writer, with exactly the bytes the writer sent);
//   - recovery is deterministic: a second kill+restart recovers the
//     identical table, and a locally retrained copy of the demo model
//     (experiments.DemoForestConfig is seeded, so retraining reproduces it
//     exactly) scores both recoveries bit-identically.
//
// This is the out-of-process complement to the in-process crash harness in
// internal/storage: here the "crash" is a real SIGKILL of a real server
// process, so the WAL fsync path, the HTTP acknowledgement ordering and the
// boot-time recovery all get exercised for real.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"accelscore/internal/dataset"
	"accelscore/internal/experiments"
	"accelscore/internal/forest"
	"accelscore/internal/harness"
)

// restartDemoRecords sizes the server's seeded iris table.
const restartDemoRecords = 150

// syntheticBase offsets writer-generated sepal_length values so they are
// disjoint from the seeded iris data. Every synthetic value stays below
// 1<<24 so the float32 -> JSON float64 -> float32 round trip is exact.
const syntheticBase = 1000

// syntheticRow derives the full, deterministic row for writer id — the
// verifier recomputes it to check recovered bytes, so acked IDs are all the
// state the harness needs to carry across the kill.
func syntheticRow(id int) [5]float64 {
	return [5]float64{
		syntheticBase + float64(id),
		float64(id%97) / 4,
		float64(id%53) / 8,
		float64(id%29) / 16,
		float64(id % 3),
	}
}

// restartReport is the JSON artifact merged into CHAOS_report.json.
type restartReport struct {
	Kills           int    `json:"kills"`
	Writers         int    `json:"writers"`
	Fsync           string `json:"fsync"`
	Attempted       int    `json:"attempted_writes"`
	Acked           int    `json:"acked_writes"`
	Recovered       int    `json:"recovered_writes"`
	LostAcked       int    `json:"lost_acked_writes"`
	PhantomRows     int    `json:"phantom_rows"`
	CorruptRows     int    `json:"corrupt_rows"`
	PredictionsSame bool   `json:"predictions_bit_identical"`
	ReplayedRecords int64  `json:"replayed_records_final_boot"`
	WALBytes        int64  `json:"wal_bytes_final_boot"`
	// Process start to healthy /healthz (polled every 25 ms), every boot.
	BootMedianMS float64 `json:"boot_median_ms"`
	BootMaxMS    float64 `json:"boot_max_ms"`
}

// sqlResult mirrors the server's /sql JSON envelope.
type sqlResult struct {
	OK    bool    `json:"ok"`
	Error string  `json:"error"`
	Rows  [][]any `json:"rows"`
}

func postSQL(client *http.Client, url, sql string) (*sqlResult, error) {
	resp, err := client.Post(url+"/sql", "text/plain", strings.NewReader(sql))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out sqlResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/sql: %s", out.Error)
	}
	return &out, nil
}

// runWriters hammers /sql with INSERTs from p.Writers closed-loop writers
// for p.WriteFor. A writer records an attempt before sending and an ack
// only after a 200 — a request cut off by the kill stays in-doubt
// (attempted, not acked), exactly like a real client. The first failed
// write means the server is (being) killed, and ends the cycle's load.
func runWriters(url string, p restartConfig, firstID int, attempted, acked *sync.Map) (next int) {
	client := harness.Client(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), p.WriteFor)
	defer cancel()
	run := harness.Closed(ctx, p.Writers, 0, 0, func(_ context.Context, i int) error {
		id := firstID + i
		row := syntheticRow(id)
		attempted.Store(id, true)
		sql := fmt.Sprintf("INSERT INTO iris VALUES (%g, %g, %g, %g, %d)",
			row[0], row[1], row[2], row[3], int(row[4]))
		res, err := postSQL(client, url, sql)
		if err != nil || !res.OK {
			cancel()
			return fmt.Errorf("write %d not acknowledged: %v", id, err)
		}
		acked.Store(id, true)
		return nil
	})
	return firstID + len(run.Samples)
}

// fetchIris pulls the whole iris table and splits it into the seeded demo
// rows and the writer-generated synthetic rows (by id).
func fetchIris(url string) (all [][]float64, synthetic map[int][]float64, err error) {
	client := harness.Client(30 * time.Second)
	res, err := postSQL(client, url,
		"SELECT sepal_length, sepal_width, petal_length, petal_width, label FROM iris")
	if err != nil {
		return nil, nil, err
	}
	synthetic = make(map[int][]float64)
	for _, raw := range res.Rows {
		if len(raw) != 5 {
			return nil, nil, fmt.Errorf("row has %d cells", len(raw))
		}
		row := make([]float64, 5)
		for i, cell := range raw {
			f, ok := cell.(float64)
			if !ok {
				return nil, nil, fmt.Errorf("non-numeric cell %T", cell)
			}
			row[i] = f
		}
		all = append(all, row)
		if row[0] >= syntheticBase {
			id := int(math.Round(row[0] - syntheticBase))
			if _, dup := synthetic[id]; dup {
				return nil, nil, fmt.Errorf("synthetic id %d recovered twice", id)
			}
			synthetic[id] = row
		}
	}
	return all, synthetic, nil
}

// healthzRecovery reads the final boot's recovery stats for the report.
func healthzRecovery(url string) (replayed, walBytes int64) {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var h struct {
		Recovery *struct {
			ReplayedRecords int64 `json:"ReplayedRecords"`
		} `json:"recovery"`
		WALBytes int64 `json:"wal_bytes"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) == nil && h.Recovery != nil {
		return h.Recovery.ReplayedRecords, h.WALBytes
	}
	return 0, 0
}

// score runs the locally retrained demo forest over the fetched rows. The
// float64 cells are exact images of the server's float32 values, so the
// predictions are the ones the server itself would compute.
func score(rows [][]float64) ([]int, error) {
	iris := dataset.Iris()
	ds := &dataset.Dataset{
		Name:         "recovered",
		FeatureNames: iris.FeatureNames,
		ClassNames:   iris.ClassNames,
		X:            make([]float32, 0, len(rows)*4),
	}
	for _, row := range rows {
		for _, f := range row[:4] {
			ds.X = append(ds.X, float32(f))
		}
	}
	f, err := forest.Train(dataset.Iris(), experiments.DemoForestConfig)
	if err != nil {
		return nil, err
	}
	return f.PredictBatch(ds), nil
}

// runRestartChaos drives the whole scenario and writes the verdict into the
// chaos JSON artifact plus results/restart_chaos.md. It returns an error —
// failing the run — on any lost acked write, phantom or corrupt row, or
// prediction divergence.
func runRestartChaos(p restartConfig, j *job) error {
	bin, cleanup, err := harness.ServeBinary(j.serveBin)
	if err != nil {
		return err
	}
	defer cleanup()
	dataDir, err := os.MkdirTemp("", "accelscore-data-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	var boots []time.Duration
	start := func() (*harness.Proc, error) {
		defer func(began time.Time) { boots = append(boots, time.Since(began)) }(time.Now())
		return harness.Start(bin, "-data-dir", dataDir, "-fsync", p.Fsync,
			"-demo-records", fmt.Sprint(restartDemoRecords))
	}

	nextID := 1
	var attempted, acked sync.Map
	for cycle := 0; cycle < p.Kills; cycle++ {
		proc, err := start()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		// SIGKILL lands while writers are mid-request: the timer below
		// pulls the trigger partway through the write window.
		killed := make(chan struct{})
		time.AfterFunc(time.Duration(float64(p.WriteFor)*0.6), func() {
			proc.Kill()
			close(killed)
		})
		nextID = runWriters(proc.URL, p, nextID, &attempted, &acked)
		<-killed
		log.Printf("restart: cycle %d killed serve mid-load", cycle+1)
	}

	// Final boot: recovery must hold everything acked across all kills.
	proc, err := start()
	if err != nil {
		return fmt.Errorf("final boot: %w", err)
	}
	replayed, walBytes := healthzRecovery(proc.URL)
	all1, syn1, err := fetchIris(proc.URL)
	proc.Kill()
	if err != nil {
		return err
	}
	// After that one more hard kill, another boot: recovery must be
	// deterministic, and the retrained demo model must score both
	// recoveries bit-identically.
	p2, err := start()
	if err != nil {
		return fmt.Errorf("determinism boot: %w", err)
	}
	defer p2.Kill()
	all2, _, err := fetchIris(p2.URL)
	if err != nil {
		return err
	}

	rep := restartReport{
		Kills:           p.Kills,
		Writers:         p.Writers,
		Fsync:           p.Fsync,
		Recovered:       len(syn1),
		ReplayedRecords: replayed,
		WALBytes:        walBytes,
		BootMedianMS:    float64(harness.Summarize(boots).P50) / 1e6,
		BootMaxMS:       float64(slices.Max(boots)) / 1e6,
	}
	attempted.Range(func(any, any) bool { rep.Attempted++; return true })
	acked.Range(func(k, _ any) bool {
		rep.Acked++
		if _, ok := syn1[k.(int)]; !ok {
			rep.LostAcked++
		}
		return true
	})
	for id, got := range syn1 {
		if _, sent := attempted.Load(id); !sent {
			rep.PhantomRows++
			continue
		}
		if want := syntheticRow(id); !slices.Equal(got, want[:]) {
			rep.CorruptRows++
		}
	}
	preds1, err := score(all1)
	if err != nil {
		return err
	}
	preds2, err := score(all2)
	if err != nil {
		return err
	}
	rep.PredictionsSame = reflect.DeepEqual(all1, all2) && harness.Verify(preds1, preds2) == nil

	log.Printf("restart: %d attempted, %d acked, %d recovered synthetic rows, "+
		"%d lost, %d phantom, %d corrupt, predictions identical: %v",
		rep.Attempted, rep.Acked, rep.Recovered, rep.LostAcked, rep.PhantomRows,
		rep.CorruptRows, rep.PredictionsSame)

	if err := harness.WriteReport(j.json, mergedChaosDoc(j, map[string]any{"restart_chaos": rep}),
		"restart_chaos.md", restartMarkdown(j, rep)); err != nil {
		return err
	}

	// Both fsyncing policies guarantee acked durability ("batch" blocks the
	// ack until the group fsync covers it); only "none" is loss-permitting.
	if p.Fsync != "none" && rep.LostAcked > 0 {
		return fmt.Errorf("restart: %d acknowledged writes lost", rep.LostAcked)
	}
	if rep.PhantomRows > 0 || rep.CorruptRows > 0 {
		return fmt.Errorf("restart: %d phantom, %d corrupt rows recovered",
			rep.PhantomRows, rep.CorruptRows)
	}
	if !rep.PredictionsSame {
		return fmt.Errorf("restart: predictions diverged between recoveries")
	}
	if rep.Acked == 0 {
		return fmt.Errorf("restart: no write was ever acknowledged — the load never landed")
	}
	return nil
}

func restartMarkdown(j *job, rep restartReport) *strings.Builder {
	var sb strings.Builder
	sb.WriteString("# Restart chaos: SIGKILL under write load\n\n")
	fmt.Fprintf(&sb, "Measured by %s: %d kill/restart cycles, "+
		"%d concurrent writers against /sql, WAL policy `%s`.\n\n", j.ran(), rep.Kills, rep.Writers, rep.Fsync)
	tbl := harness.NewTable(&sb, []harness.Col{{"metric", "%s"}, {"value:", "%v"}})
	tbl.Row("writes attempted", rep.Attempted)
	tbl.Row("writes acknowledged", rep.Acked)
	tbl.Row("synthetic rows recovered", rep.Recovered)
	tbl.Row("acked writes lost", rep.LostAcked)
	tbl.Row("phantom rows", rep.PhantomRows)
	tbl.Row("corrupt rows", rep.CorruptRows)
	tbl.Row("WAL records replayed at final boot", rep.ReplayedRecords)
	tbl.Row(fmt.Sprintf("boot to healthy, median of %d (ms)", rep.Kills+2), fmt.Sprintf("%.1f", rep.BootMedianMS))
	tbl.Row("boot to healthy, max (ms)", fmt.Sprintf("%.1f", rep.BootMaxMS))
	tbl.Row("predictions bit-identical across recoveries", rep.PredictionsSame)
	sb.WriteString("\nEvery 200 on /sql is a durability acknowledgement: with `-fsync always` the\n" +
		"WAL record is on disk before the response leaves the server, so a SIGKILL at\n" +
		"any instant loses only in-doubt requests (sent, never answered) — exactly the\n" +
		"writes a client cannot assume landed. The verifier retrains the demo forest\n" +
		"from its exported seeded config and scores the recovered table after two\n" +
		"independent crash-recoveries; the predictions must match bit for bit, pinning\n" +
		"the paper's requirement that the storage path feeding the accelerator never\n" +
		"perturbs the data.\n")
	return &sb
}
