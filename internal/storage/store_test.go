package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"accelscore/internal/db"
	"accelscore/internal/obs"
)

// openStore opens a store in dir with auto-compaction disabled (tests drive
// compaction explicitly) and the given sync policy.
func openStore(t *testing.T, dir string, sync SyncPolicy) (*Store, *db.Database) {
	t.Helper()
	s, d, err := Open(Config{Dir: dir, Sync: sync, CompactBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, d
}

// seedTable registers a small populated table through the journaled path.
func seedTable(t *testing.T, d *db.Database) {
	t.Helper()
	tbl, err := db.NewTable("obs", []db.Column{
		{Name: "x", Type: db.Float32Col},
		{Name: "label", Type: db.Int64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tbl.Insert([]db.Value{db.Float(float32(i)), db.Int(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
}

// requireSameState fails unless both databases hold identical tables and
// cells.
func requireSameState(t *testing.T, want, got *db.Database) {
	t.Helper()
	wn, gn := want.TableNames(), got.TableNames()
	if len(wn) != len(gn) {
		t.Fatalf("tables: got %v, want %v", gn, wn)
	}
	for _, name := range wn {
		wt, _ := want.Table(name)
		gt, err := got.Table(name)
		if err != nil {
			t.Fatalf("table %q missing", name)
		}
		wr, gr := wt.Rows(), gt.Rows()
		if len(wr) != len(gr) {
			t.Fatalf("table %q: %d rows, want %d", name, len(gr), len(wr))
		}
		for r := range wr {
			for c := range wr[r] {
				wv, gv := wr[r][c], gr[r][c]
				if wv.F != gv.F || wv.I != gv.I || wv.S != gv.S || !bytes.Equal(wv.B, gv.B) {
					t.Fatalf("table %q cell (%d,%d): %+v want %+v", name, r, c, gv, wv)
				}
			}
		}
	}
}

func TestStoreRecoversAllOps(t *testing.T) {
	dir := t.TempDir()
	s, d := openStore(t, dir, SyncAlways)
	seedTable(t, d)
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := d.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("INSERT INTO obs VALUES (9.5, 1), (10.5, 0)")
	mustExec("UPDATE obs SET x = 99 WHERE label = 1")
	mustExec("DELETE FROM obs WHERE x < 2")
	if err := d.StoreModelBlob("m", []byte("blob-1")); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreModelBlob("gone", []byte("blob-2")); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteModel("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	requireSameState(t, d, d2)
	ri := s2.Recovery()
	if ri.SnapshotLoaded || ri.ReplayedRecords == 0 || ri.DroppedWALBytes != 0 {
		t.Fatalf("recovery info: %+v", ri)
	}
	if blob, err := d2.LoadModelBlob("m"); err != nil || string(blob) != "blob-1" {
		t.Fatalf("model after recovery: %q, %v", blob, err)
	}
	if _, err := d2.LoadModelBlob("gone"); err == nil {
		t.Fatalf("deleted model resurrected")
	}
}

func TestStoreMutationsFailAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, d := openStore(t, dir, SyncAlways)
	seedTable(t, d)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Query("INSERT INTO obs VALUES (1.0, 1)"); err == nil {
		t.Fatalf("insert after Close should fail, not silently lose durability")
	}
}

func TestCompactionFoldsWALIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, d := openStore(t, dir, SyncAlways)
	seedTable(t, d)
	for i := 0; i < 10; i++ {
		if _, _, err := d.Query(fmt.Sprintf("INSERT INTO obs VALUES (%d.25, %d)", i, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if s.WALSize() == 0 {
		t.Fatalf("expected a non-empty WAL before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.WALSize() != 0 {
		t.Fatalf("WAL not truncated after compaction: %d bytes", s.WALSize())
	}
	// Post-compaction writes land in the (now empty) WAL.
	if _, _, err := d.Query("INSERT INTO obs VALUES (777.5, 1)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	requireSameState(t, d, d2)
	ri := s2.Recovery()
	if !ri.SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", ri)
	}
	if ri.ReplayedRecords != 1 {
		t.Fatalf("expected exactly the post-compaction insert to replay, got %+v", ri)
	}
}

// TestCompactionCrashWindowIsIdempotent covers the crash between snapshot
// rename and WAL truncation: the WAL still holds records the snapshot
// already folded in, and replay must skip them instead of double-applying.
func TestCompactionCrashWindowIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, d := openStore(t, dir, SyncAlways)
	seedTable(t, d)
	if _, _, err := d.Query("INSERT INTO obs VALUES (50.5, 1)"); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: restore the pre-compaction WAL alongside
	// the new snapshot.
	if err := os.WriteFile(filepath.Join(dir, walFile), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	requireSameState(t, d, d2)
	ri := s2.Recovery()
	if ri.ReplayedRecords != 0 || ri.SkippedRecords == 0 {
		t.Fatalf("stale WAL records must be skipped, not replayed: %+v", ri)
	}
}

func TestTornTailDroppedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s, d := openStore(t, dir, SyncAlways)
	seedTable(t, d)
	if _, _, err := d.Query("INSERT INTO obs VALUES (5.5, 0)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage — a torn in-flight record the crash interrupted.
	torn := append(append([]byte(nil), clean...), 0xDE, 0xAD, 0xBE)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2, d2, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireSameState(t, d, d2)
	if ri := s2.Recovery(); ri.DroppedWALBytes != 3 {
		t.Fatalf("DroppedWALBytes = %d, want 3", ri.DroppedWALBytes)
	}
	// The truncation is persistent: the file holds only the valid prefix.
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("torn tail not truncated from the file")
	}
}

// TestGroupCommitConcurrentWriters drives SyncBatch from many goroutines;
// every acknowledged insert must survive a clean reopen. Run under -race
// this also exercises the leader hand-off's synchronization.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, d, err := Open(Config{Dir: dir, Sync: SyncBatch, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedTable(t, d)
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sql := fmt.Sprintf("INSERT INTO obs VALUES (%d.5, %d)", g*1000+i, g%2)
				if _, _, err := d.Query(sql); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	tbl, err := d2.Table("obs")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRows(); got != 5+writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", got, 5+writers*perWriter)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "": SyncAlways, "batch": SyncBatch, "none": SyncNone, "BATCH": SyncBatch,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatalf("bad policy accepted")
	}
}
