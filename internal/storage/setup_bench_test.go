package storage

import (
	"path/filepath"
	"testing"

	"accelscore/internal/dataset"
	"accelscore/internal/db"
)

// seedLikeTables are the tables of the benchmark's seeded data directory:
// 50 000 HIGGS rows, 25 000 IRIS rows and two 20 000-row HIGGS event tables,
// each a REAL column per feature plus a BIGINT label.
func seedLikeTables(b *testing.B) []*db.Table {
	b.Helper()
	var tables []*db.Table
	for _, t := range []struct {
		name string
		data *dataset.Dataset
	}{
		{"higgs", dataset.Higgs(50_000, 1)},
		{"iris", dataset.Iris().Replicate(25_000)},
		{"events_0", dataset.Higgs(20_000, 2)},
		{"events_1", dataset.Higgs(20_000, 3)},
	} {
		tbl, err := db.TableFromDataset(t.name, t.data)
		if err != nil {
			b.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	return tables
}

// openSeedLike opens a SyncNone store in dir and journals the seed-like
// tables into it, as seeding a data directory does before it compacts.
func openSeedLike(b *testing.B, dir string) *Store {
	b.Helper()
	s, d, err := Open(Config{Dir: dir, Sync: SyncNone, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range seedLikeTables(b) {
		if err := d.CreateTable(t); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkCompact times one compaction of the seed-like database: the
// snapshot's encode, its write and fsync, the rename and the WAL reset.
func BenchmarkCompact(b *testing.B) {
	s := openSeedLike(b, filepath.Join(b.TempDir(), "store"))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen times a shard's boot over the compacted seed-like directory:
// Open reads data.snap into typed tables and finds an empty WAL, then Close.
func BenchmarkOpen(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	s := openSeedLike(b, dir)
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := Open(Config{Dir: dir, Sync: SyncNone, CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
