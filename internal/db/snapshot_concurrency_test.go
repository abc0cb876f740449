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

// TestSubsetSnapshotIsOneVersionUnderWrites: DatasetSnapshotFor against
// concurrent INSERT / UPDATE / DELETE writers, on both of its paths — the
// table's own columns, by nil and by name (a view of the live block), and a
// reordered projection (a gathered copy). Every dataset a reader gets must be
// rows [0, limit) of ONE table state, never a mix of two, with no spare
// capacity, and must still hold the same cells once the writers are done:
// a view shares the table's memory, so an UPDATE or DELETE applied in place
// would show up here (and as a -race report).
func TestSubsetSnapshotIsOneVersionUnderWrites(t *testing.T) {
	for _, tc := range []struct {
		name     string
		features []string
		cols     []int // the projection as schema indices, for the reference
		view     bool
	}{
		{"view-nil", nil, []int{0, 2}, true},
		{"view-named", []string{"id", "stamp"}, []int{0, 2}, true},
		{"gather-reordered", []string{"stamp", "id"}, []int{2, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			viewUnderWrites(t, tc.features, tc.cols, tc.view)
		})
	}
}

func viewUnderWrites(t *testing.T, features []string, cols []int, view bool) {
	const baseRows, writers, readers, stmtsPerWriter, readsPerReader = 200, 2, 4, 60, 150
	d := db.New()
	// The REAL columns are not adjacent in the schema; they are in the block.
	tbl, err := db.NewTable("obs", []db.Column{
		{Name: "id", Type: db.Float32Col},
		{Name: "label", Type: db.Int64Col},
		{Name: "stamp", Type: db.Float32Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < baseRows; i++ {
		if err := tbl.Insert([]db.Value{db.Float(float32(i)), db.Int(0), db.Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	// states holds the projected cells of every table state a reader could
	// have seen, read cell by cell: writers take stateMu around each statement
	// and record the state it left, so none goes unrecorded (a statement is
	// atomic to readers).
	var stateMu sync.Mutex
	var states [][]float32
	record := func() {
		var x []float32
		for _, row := range tbl.Rows() {
			for _, c := range cols {
				x = append(x, row[c].F)
			}
		}
		states = append(states, x)
	}
	record()

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
					stmt = fmt.Sprintf("INSERT INTO obs VALUES (%d, 1, %d), (%d, 1, %d)",
						baseRows+stamp, stamp, baseRows+stamp, -stamp)
				case 2:
					// A base row, so every row behind it moves up.
					stmt = fmt.Sprintf("DELETE FROM obs WHERE id = %d", stamp)
				}
				stateMu.Lock()
				_, _, err := d.Query(stmt)
				record()
				stateMu.Unlock()
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
			}
		}()
	}
	results := make([][]result, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			limits := []int{0, 7, 64, baseRows / 2}
			for i := 0; i < readsPerReader; i++ {
				limit := limits[(i+r)%len(limits)]
				ds, hit, err := tbl.DatasetSnapshotFor(features, limit)
				if err != nil || hit != view || cap(ds.X) != len(ds.X) {
					errCh <- fmt.Errorf("limit %d: hit=%v (want %v) len=%d cap=%d err=%v",
						limit, hit, view, len(ds.X), cap(ds.X), err)
					return
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

	for r, rs := range results {
		for i, res := range rs {
			if checksum(res.x) != res.sum {
				t.Fatalf("reader %d call %d (limit %d): the dataset changed after it was returned", r, i, res.limit)
			}
			matched := slices.ContainsFunc(states, func(state []float32) bool {
				want := state
				if res.limit > 0 && res.limit*len(cols) < len(state) {
					want = state[:res.limit*len(cols)]
				}
				return slices.Equal(res.x, want)
			})
			if !matched {
				t.Fatalf("reader %d call %d (limit %d, %d rows): not rows [0, limit) of any single table state",
					r, i, res.limit, len(res.x)/len(cols))
			}
		}
	}

	// Quiesced: the next call sees every statement, and two calls with no
	// mutation between them share the block when they are views — the
	// zero-copy pin — and nothing when they are gathers.
	a, _, err := tbl.DatasetSnapshotFor(features, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tbl.DatasetSnapshotFor(features, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.X, states[len(states)-1]) {
		t.Fatal("the settled table does not read as its final state")
	}
	if shared := &a.X[0] == &b.X[0]; shared != view {
		t.Fatalf("two calls on an unchanged table share memory: %v, want %v", shared, view)
	}
}
