package db_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"accelscore/internal/db"
)

// TestSnapshotCacheUnderConcurrentWrites hammers DatasetSnapshotCached from
// reader goroutines while writers insert rows: every snapshot must be
// internally consistent (the conversion happens outside the snapshot lock,
// so a torn read would show up as a row-count/version mismatch or a -race
// report), and after quiescing the cache must serve the final row count.
func TestSnapshotCacheUnderConcurrentWrites(t *testing.T) {
	d := db.New()
	tbl, err := db.NewTable("obs", []db.Column{
		{Name: "x", Type: db.Float32Col},
		{Name: "label", Type: db.Int64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]db.Value{db.Float(1), db.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	const writers, readers, rowsPerWriter = 4, 4, 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPerWriter; i++ {
				if err := tbl.Insert([]db.Value{db.Float(float32(w)), db.Int(int64(i % 2))}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ds, _, err := tbl.DatasetSnapshotCached()
				if err != nil {
					errCh <- err
					return
				}
				// A consistent conversion has exactly one label per row and
				// every row fully copied.
				if len(ds.Y) != ds.NumRecords() {
					errCh <- fmt.Errorf("torn snapshot: %d labels for %d rows", len(ds.Y), ds.NumRecords())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	wantRows := 1 + writers*rowsPerWriter
	if got := tbl.NumRows(); got != wantRows {
		t.Fatalf("table has %d rows, want %d", got, wantRows)
	}
	// Quiesced: the next snapshot must see every insert, and the one after
	// must be the cached copy of the same version.
	ds, _, err := tbl.DatasetSnapshotCached()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRecords() != wantRows {
		t.Fatalf("final snapshot has %d rows, want %d", ds.NumRecords(), wantRows)
	}
	ds2, hit, err := tbl.DatasetSnapshotCached()
	if err != nil {
		t.Fatal(err)
	}
	if !hit || ds2 != ds {
		t.Fatalf("settled snapshot not cached (hit=%v)", hit)
	}
}

// TestSelectConsistentUnderMutation runs SELECT scans concurrently with
// row-mutating UPDATE/DELETE statements: each scan holds the table's read
// lock for its whole duration, so the match+copy can never observe a
// half-applied write (verified by -race and by bounds errors).
func TestSelectConsistentUnderMutation(t *testing.T) {
	d := db.New()
	tbl, err := db.NewTable("m", []db.Column{
		{Name: "x", Type: db.Int64Col},
		{Name: "y", Type: db.Int64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tbl.Insert([]db.Value{db.Int(int64(i)), db.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := d.Query("UPDATE m SET y = 1 WHERE x < 100"); err != nil {
					errCh <- err
					return
				}
				if _, _, err := d.Query("UPDATE m SET y = 2 WHERE x >= 100"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, _, err := d.Query("SELECT y FROM m WHERE x = 150")
				if err != nil {
					errCh <- err
					return
				}
				if res.NumRows() != 1 {
					errCh <- fmt.Errorf("point lookup returned %d rows", res.NumRows())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSubsetSnapshotIsOneVersionUnderWrites: DatasetSnapshotFor with mixed
// limits — so full entries, prefixes, Head copies and replacements all occur
// — against concurrent INSERT / UPDATE / DELETE writers. Every dataset a
// reader gets must be rows [0, limit) of ONE table state, never a mix of
// two, and must never change after it was returned, although bounded results
// may now be the cached slice other readers share.
func TestSubsetSnapshotIsOneVersionUnderWrites(t *testing.T) {
	const baseRows, writers, readers, stmtsPerWriter, readsPerReader = 200, 2, 4, 60, 150
	features := []string{"stamp", "id"}
	d := db.New()
	tbl, err := db.NewTable("obs", []db.Column{
		{Name: "id", Type: db.Float32Col},
		{Name: "stamp", Type: db.Float32Col},
		{Name: "label", Type: db.Int64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < baseRows; i++ {
		if err := tbl.Insert([]db.Value{db.Float(float32(i)), db.Float(0), db.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	// states holds the cells of every table state a reader could have seen:
	// writers take stateMu around each statement and record the state it
	// left, so none goes unrecorded (a statement is atomic to readers).
	var stateMu sync.Mutex
	var states [][]float32
	record := func() error {
		ref, err := tbl.DatasetFor(features, 0)
		if err == nil {
			states = append(states, ref.X)
		}
		return err
	}
	if err := record(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		limit int
		x     []float32
		sum   uint64
	}
	checksum := func(x []float32) uint64 {
		h := fnv.New64a()
		for _, v := range x {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		return h.Sum64()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < stmtsPerWriter; i++ {
				stamp := 1 + w*stmtsPerWriter + i // unique, so states differ
				stmt := fmt.Sprintf("UPDATE obs SET stamp = %d WHERE id >= %d", stamp, i%7)
				switch i % 3 {
				case 1:
					stmt = fmt.Sprintf("INSERT INTO obs VALUES (%d, %d, 1)", baseRows+stamp, stamp)
				case 2:
					stmt = fmt.Sprintf("DELETE FROM obs WHERE id = %d", baseRows+stamp-1)
				}
				stateMu.Lock()
				_, _, err := d.Query(stmt)
				if err == nil {
					err = record()
				}
				stateMu.Unlock()
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
			}
		}()
	}
	results := make([][]result, readers)
	hits := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			limits := []int{0, 7, 64, baseRows / 2}
			for i := 0; i < readsPerReader; i++ {
				limit := limits[(i+r)%len(limits)]
				ds, hit, err := tbl.DatasetSnapshotFor(features, limit)
				if err != nil {
					errCh <- err
					return
				}
				if hit {
					hits[r]++
				}
				results[r] = append(results[r], result{limit, ds.X, checksum(ds.X)})
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	totalHits := 0
	for r, rs := range results {
		totalHits += hits[r]
		for i, res := range rs {
			if checksum(res.x) != res.sum {
				t.Fatalf("reader %d call %d (limit %d): the dataset changed after it was returned", r, i, res.limit)
			}
			matched := slices.ContainsFunc(states, func(state []float32) bool {
				want := state
				if res.limit > 0 && res.limit*len(features) < len(state) {
					want = state[:res.limit*len(features)]
				}
				return slices.Equal(res.x, want)
			})
			if !matched {
				t.Fatalf("reader %d call %d (limit %d, %d rows): not rows [0, limit) of any single table state",
					r, i, res.limit, len(res.x)/len(features))
			}
		}
	}
	if totalHits == 0 {
		t.Error("no reader ever hit the cache: the shared-slice path went unexercised")
	}
}
