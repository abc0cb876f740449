package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/forest"
)

// wop is one generated workload operation: either a DML statement (applied
// via the SQL layer, so the store path and the oracle path execute the
// identical code) or a model-store/model-delete call.
type wop struct {
	sql   string
	model string
	store bool
	blob  []byte
}

func (o wop) String() string {
	if o.sql != "" {
		return o.sql
	}
	if o.store {
		return "STORE MODEL " + o.model
	}
	return "DELETE MODEL " + o.model
}

// applyWop executes one op. A DeleteModel of a missing model is allowed to
// fail — it fails identically in the oracle, and writes no WAL record.
func applyWop(tb testing.TB, d *db.Database, op wop) {
	tb.Helper()
	if op.sql != "" {
		if _, _, err := d.Query(op.sql); err != nil {
			tb.Fatalf("%s: %v", op.sql, err)
		}
		return
	}
	if op.store {
		if err := d.StoreModelBlob(op.model, op.blob); err != nil {
			tb.Fatalf("store model %s: %v", op.model, err)
		}
		return
	}
	_ = d.DeleteModel(op.model)
}

// genOps builds a deterministic mixed workload from the seed.
func genOps(seed int64, n int) []wop {
	rng := rand.New(rand.NewSource(seed))
	fv := func() string { return fmt.Sprintf("%.2f", float64(rng.Intn(1000))/100) }
	var stored []string
	ops := make([]wop, 0, n)
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 45: // INSERT of 1-2 rows
			rows := 1 + rng.Intn(2)
			sql := "INSERT INTO fleet VALUES "
			for r := 0; r < rows; r++ {
				if r > 0 {
					sql += ", "
				}
				sql += fmt.Sprintf("(%s, %s, %s, %s, %d)", fv(), fv(), fv(), fv(), rng.Intn(3))
			}
			ops = append(ops, wop{sql: sql})
		case p < 65: // UPDATE
			cols := []string{"sepal_length", "sepal_width", "petal_length", "petal_width"}
			set, where := cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))]
			ops = append(ops, wop{sql: fmt.Sprintf(
				"UPDATE fleet SET %s = %s WHERE %s > %s", set, fv(), where, fv())})
		case p < 78: // DELETE with a high threshold so the table survives
			ops = append(ops, wop{sql: fmt.Sprintf(
				"DELETE FROM fleet WHERE sepal_length > %.2f", 8.0+float64(rng.Intn(150))/100)})
		case p < 92: // model store
			name := fmt.Sprintf("m%d", i)
			blob := make([]byte, 8+rng.Intn(64))
			rng.Read(blob)
			stored = append(stored, name)
			ops = append(ops, wop{model: name, store: true, blob: blob})
		default: // model delete (sometimes of a missing name)
			name := "missing"
			if len(stored) > 0 && rng.Intn(4) > 0 {
				name = stored[rng.Intn(len(stored))]
			}
			ops = append(ops, wop{model: name})
		}
	}
	return ops
}

// seedFleet registers the iris dataset as the "fleet" table through the
// (possibly journaled) CreateTable path.
func seedFleet(tb testing.TB, d *db.Database) {
	tb.Helper()
	tbl, err := db.TableFromDataset("fleet", dataset.Iris())
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateTable(tbl); err != nil {
		tb.Fatal(err)
	}
}

// TestCrashRecoveryAtEveryWALBoundary is the adversarial recovery harness:
// it runs a seeded workload against a journaled store, recording the WAL
// offset after every acknowledged op, then simulates a crash at every record
// boundary — plus torn mid-record writes (truncation) and flipped bits in
// the tail record — and asserts the recovered database equals a fault-free
// oracle holding exactly the acknowledged prefix: no acked op lost, no
// unacked op resurrected, and model predictions over the recovered table
// bit-identical to the oracle's.
func TestCrashRecoveryAtEveryWALBoundary(t *testing.T) {
	const seed, nOps = 7, 36
	dir := t.TempDir()
	s, d, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedFleet(t, d)
	ops := genOps(seed, nOps)
	// boundaries[i] is the WAL size once the first i ops are acknowledged
	// (boundaries[0] covers only the CREATE TABLE seeding).
	boundaries := []int64{s.WALSize()}
	for _, op := range ops {
		applyWop(t, d, op)
		boundaries = append(boundaries, s.WALSize())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != boundaries[len(boundaries)-1] {
		t.Fatalf("WAL is %d bytes, last boundary %d", len(walBytes), boundaries[len(boundaries)-1])
	}

	// The scoring model: predictions over recovered state must be
	// bit-identical to predictions over the oracle.
	scorer, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 8, Tree: forest.TrainConfig{MaxDepth: 6}, Seed: 1, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	oracle := func(tb testing.TB, nOps int) *db.Database {
		od := db.New()
		seedFleet(tb, od)
		for _, op := range ops[:nOps] {
			applyWop(tb, od, op)
		}
		return od
	}

	// crashCheck boots a store from a mutated copy of the WAL and compares
	// against the oracle holding wantOps acknowledged ops.
	crashCheck := func(t *testing.T, wal []byte, wantOps int) {
		t.Helper()
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, d2, err := Open(Config{Dir: cdir, Sync: SyncAlways, CompactBytes: -1})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer s2.Close()
		want := oracle(t, wantOps)
		requireSameState(t, want, d2)

		wt, err1 := want.Table("fleet")
		gt, err2 := d2.Table("fleet")
		if err1 != nil || err2 != nil {
			t.Fatalf("fleet table missing: %v %v", err1, err2)
		}
		if wt.NumRows() == 0 {
			return
		}
		wd, err := db.DatasetFromTable(wt)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := db.DatasetFromTable(gt)
		if err != nil {
			t.Fatal(err)
		}
		wp, gp := scorer.PredictBatch(wd), scorer.PredictBatch(gd)
		if len(wp) != len(gp) {
			t.Fatalf("prediction count: %d vs %d", len(gp), len(wp))
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("prediction %d diverged after recovery: %d vs %d", i, gp[i], wp[i])
			}
		}
	}

	for i := 0; i <= len(ops); i++ {
		off := boundaries[i]
		// Crash exactly at the record boundary: the acknowledged prefix
		// survives in full.
		t.Run(fmt.Sprintf("boundary-%02d", i), func(t *testing.T) {
			crashCheck(t, walBytes[:off], i)
		})
		if i == len(ops) {
			break
		}
		next := boundaries[i+1]
		if next == off {
			continue // op wrote no record (no-op UPDATE/DELETE, missing model)
		}
		mid := off + (next-off)/2
		if mid == off {
			mid = off + 1
		}
		// Torn write: the next record only partially reached disk. It must
		// be dropped, never half-applied or resurrected.
		t.Run(fmt.Sprintf("torn-%02d", i), func(t *testing.T) {
			crashCheck(t, walBytes[:mid], i)
		})
		// Bit rot / scribbled sector inside the tail record: the CRC must
		// catch it and recovery lands on the previous boundary.
		t.Run(fmt.Sprintf("bitflip-%02d", i), func(t *testing.T) {
			bad := append([]byte(nil), walBytes[:next]...)
			bad[mid] ^= 0x10
			crashCheck(t, bad, i)
		})
	}
}

// TestRecoveryScoresBitIdentically runs the whole workload, crashes cleanly
// at the end, and verifies the recovered store also serves the exact same
// predictions through a fresh scoring pass — the paper's concern that the
// storage path feeding the accelerator must not perturb the data.
func TestRecoveryScoresBitIdentically(t *testing.T) {
	dir := t.TempDir()
	s, d, err := Open(Config{Dir: dir, Sync: SyncBatch, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedFleet(t, d)
	for _, op := range genOps(11, 25) {
		applyWop(t, d, op)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, d2, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	scorer, err := forest.Train(dataset.Iris(), forest.ForestConfig{
		NumTrees: 16, Tree: forest.TrainConfig{MaxDepth: 8}, Seed: 3, Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := d.Table("fleet")
	t2, err := d2.Table("fleet")
	if err != nil {
		t.Fatal(err)
	}
	d1s, err := db.DatasetFromTable(t1)
	if err != nil {
		t.Fatal(err)
	}
	d2s, err := db.DatasetFromTable(t2)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := scorer.PredictBatch(d1s), scorer.PredictBatch(d2s)
	if len(p1) != len(p2) {
		t.Fatalf("prediction counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("prediction %d: pre-crash %d, post-recovery %d", i, p1[i], p2[i])
		}
	}
}

// TestVersionSurvivesRecovery: a statement is one mutation when it runs and
// one when its WAL record replays, so Table.Version() — not only the cells —
// reads the same after a crash as before it. A seeded INSERT / UPDATE / DELETE
// / model schedule with multi-row INSERTs runs live; the store is reopened
// from the WAL alone, and from a mid-schedule compaction snapshot (whose
// table headers carry the version) plus the WAL tail.
func TestVersionSurvivesRecovery(t *testing.T) {
	for name, compactAt := range map[string]int{"wal-only": -1, "snapshot-plus-wal": 20} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, d := openStore(t, dir, SyncBatch)
			ops := append([]wop{
				{sql: "CREATE TABLE fleet (sepal_length REAL, sepal_width REAL, petal_length REAL, petal_width REAL, label BIGINT)"},
				{sql: "INSERT INTO fleet VALUES (5.1, 3.5, 1.4, 0.2, 0), (7.0, 3.2, 4.7, 1.4, 1), (6.3, 3.3, 6.0, 2.5, 2)"},
			}, genOps(23, 40)...)
			for i, op := range ops {
				applyWop(t, d, op)
				if i == compactAt {
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, d2 := openStore(t, dir, SyncBatch)
			defer s2.Close()
			if loaded := s2.Recovery().SnapshotLoaded; loaded != (compactAt >= 0) {
				t.Fatalf("snapshot loaded: %v", loaded)
			}
			requireSameState(t, d, d2)
			for _, name := range d.TableNames() {
				live, _ := d.Table(name)
				recovered, _ := d2.Table(name)
				if live.Version() != recovered.Version() {
					t.Errorf("table %q: version %d before the crash, %d after recovery",
						name, live.Version(), recovered.Version())
				}
			}
		})
	}
}
