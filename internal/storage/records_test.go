package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
	"accelscore/internal/storage/pagefmt"
)

// The encode* helpers are the record encoders without the WAL's frame room:
// each returns a bare payload, which the test frames or decodes itself.
func encodeCreateTable(lsn uint64, v db.TableView) []byte { return appendCreateTable(nil, lsn, v) }
func encodeInsert(lsn uint64, table string, cols []db.Column, rows [][]db.Value) []byte {
	return appendInsert(nil, lsn, table, cols, rows)
}
func encodeUpdate(lsn uint64, st *db.UpdateStmt) []byte { return appendUpdate(nil, lsn, st) }
func encodeDelete(lsn uint64, st *db.DeleteStmt) []byte { return appendDelete(nil, lsn, st) }
func encodeModelStore(lsn uint64, name string, blob []byte) []byte {
	return appendModelStore(nil, lsn, name, blob)
}
func encodeModelDelete(lsn uint64, name string) []byte { return appendModelDelete(nil, lsn, name) }

// valueCreateTable spells a CREATE TABLE record the way the encoder did
// before it read typed vectors: the header, then the rows as Value cells
// through INSERT's appendRows.
func valueCreateTable(lsn uint64, name string, cols []db.Column, rows [][]db.Value) []byte {
	dst := appendRecordHeader(nil, lsn, opCreateTable)
	dst = pagefmt.AppendString(dst, name)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = pagefmt.AppendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	return appendRows(dst, cols, rows)
}

// randomTable builds a table of random schema and rows, its cells drawn
// from pools that hold the edge cases: NaN payloads, −0, ±Inf, extreme
// integers, empty and non-ASCII text, nil and empty blobs.
func randomTable(t *testing.T, rng *rand.Rand, nrows int) *db.Table {
	t.Helper()
	floats := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff),
		math.SmallestNonzeroFloat32, math.MaxFloat32, 1.5, -2.25}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40}
	texts := []string{"", "a", "ünï", "hello, world", string(make([]byte, 200))}
	blobs := [][]byte{nil, {}, {0}, {0xff, 0, 0xff}, bytes.Repeat([]byte{7}, 300)}

	cols := make([]db.Column, 1+rng.IntN(6))
	for i := range cols {
		cols[i] = db.Column{Name: fmt.Sprintf("c%d", i), Type: db.ColumnType(rng.IntN(4))}
	}
	rows := make([][]db.Value, nrows)
	for r := range rows {
		rows[r] = make([]db.Value, len(cols))
		for c, col := range cols {
			switch col.Type {
			case db.Float32Col:
				rows[r][c] = db.Float(floats[rng.IntN(len(floats))])
				if rng.IntN(2) == 0 {
					rows[r][c] = db.Float(rng.Float32()*2e6 - 1e6)
				}
			case db.Int64Col:
				rows[r][c] = db.Int(ints[rng.IntN(len(ints))] ^ rng.Int64N(4))
			case db.TextCol:
				rows[r][c] = db.Text(texts[rng.IntN(len(texts))])
			default:
				rows[r][c] = db.Blob(blobs[rng.IntN(len(blobs))])
			}
		}
	}
	tbl, err := db.NewTable(fmt.Sprintf("t%d", nrows), cols)
	if err != nil {
		t.Fatal(err)
	}
	// Two appends, so the block has grown once under the view.
	half := nrows / 2
	if err := tbl.AppendRows(rows[:half]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRows(rows[half:]); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestCreateTableRecordMatchesValueSpelling: for random tables of every
// column type, the record written from the typed vectors equals the one
// spelled from the table's Value rows and decodes back to the same cells.
func TestCreateTableRecordMatchesValueSpelling(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	for trial := range 60 {
		nrows := []int{0, 1, 3, 17, 65, 129}[trial%6]
		tbl := randomTable(t, rng, nrows)
		got := encodeCreateTable(uint64(trial+1), tbl.View())
		want := valueCreateTable(uint64(trial+1), tbl.Name, tbl.Columns, tbl.Rows())
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d rows, %+v): typed record differs from the Value spelling", trial, nrows, tbl.Columns)
		}
		rec, err := decodeRecord(got)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireRows(t, fmt.Sprintf("trial %d", trial), rec.rows, tbl.Rows())
	}
}

// TestCreateTableJournalAllocs: journaling the 20 000-row HIGGS table
// allocates at most 1.5× its record's bytes: the record, framed where it was
// built, and no second copy for the WAL, nor a Value per cell.
func TestCreateTableJournalAllocs(t *testing.T) {
	tbl, err := db.TableFromDataset("higgs", dataset.Higgs(20_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, d, err := Open(Config{Dir: t.TempDir(), Sync: SyncNone, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := d.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	record := uint64(s.WALSize() - pagefmt.FrameOverhead)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*record/2 {
		t.Fatalf("journaling a %d-byte record allocated %d bytes (%.1f×), want ≤ 1.5×",
			record, alloc, float64(alloc)/float64(record))
	}
}

// TestWALFramesRecordsInPlace: the log holds each record exactly as its
// bare payload framed by pagefmt.AppendFrame, and a record too big to keep
// does not stay behind as the store's record buffer.
func TestWALFramesRecordsInPlace(t *testing.T) {
	dir := t.TempDir()
	s, d, err := Open(Config{Dir: dir, Sync: SyncNone, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big, err := db.TableFromDataset("higgs", dataset.Higgs(2_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(big); err != nil {
		t.Fatal(err)
	}
	rows := big.Rows()[:4]
	if err := s.LogInsert(big.Name, big.Columns, rows); err != nil {
		t.Fatal(err)
	}
	want := pagefmt.AppendFrame(nil, encodeCreateTable(1, big.View()))
	if len(want) <= keepRecord {
		t.Fatalf("the CREATE TABLE record is %d bytes, want one bigger than the %d kept", len(want), keepRecord)
	}
	want = pagefmt.AppendFrame(want, encodeInsert(2, big.Name, big.Columns, rows))
	got, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the log holds %d bytes, want the %d of the two framed records", len(got), len(want))
	}
	if cap(s.rec) > keepRecord {
		t.Fatalf("the store kept a %d-byte record buffer, want at most %d", cap(s.rec), keepRecord)
	}
}

// BenchmarkCreateTableJournaled times CREATE TABLE of the 20 000-row × 29
// column HIGGS table into a SyncNone store: the record's encode and its WAL
// write, which is what seeding a data directory pays per table. Every eight
// tables the store is replaced off the clock, so the WAL stays small.
func BenchmarkCreateTableJournaled(b *testing.B) {
	const batch = 8
	higgs := dataset.Higgs(20_000, 1)
	dir := filepath.Join(b.TempDir(), "store")
	var (
		s        *Store
		d        *db.Database
		tables   []*db.Table
		walBytes int64
	)
	refill := func() {
		if s != nil {
			walBytes += s.WALSize()
			s.Close()
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		var err error
		if s, d, err = Open(Config{Dir: dir, Sync: SyncNone, CompactBytes: -1}); err != nil {
			b.Fatal(err)
		}
		tables = tables[:0]
		for i := range batch {
			tbl, err := db.TableFromDataset(fmt.Sprintf("higgs_%d", i), higgs)
			if err != nil {
				b.Fatal(err)
			}
			tables = append(tables, tbl)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		if err := d.CreateTable(tables[i%batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	walBytes += s.WALSize()
	s.Close()
	b.ReportMetric(float64(walBytes)/float64(b.N), "walB/op")
}
