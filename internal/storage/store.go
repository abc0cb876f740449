package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"accelscore/internal/db"
	"accelscore/internal/obs"
	"accelscore/internal/storage/pagefmt"
)

// On-disk layout inside the data directory:
//
//	data.snap — compacted snapshot: magic "ACSTOR01" + frame{u64 lastLSN} +
//	            the db package's binary page snapshot. Written to a temp
//	            file, fsynced, then renamed, so a crash mid-compaction
//	            leaves the previous snapshot intact.
//	wal.log   — append-only record log. Records with LSN <= the snapshot's
//	            lastLSN are skipped on replay, which makes the crash window
//	            between snapshot rename and log truncation idempotent.
var storeMagic = [8]byte{'A', 'C', 'S', 'T', 'O', 'R', '0', '1'}

const (
	snapshotFile = "data.snap"
	walFile      = "wal.log"
	// DefaultCompactBytes triggers a compaction snapshot once the WAL
	// crosses this size.
	DefaultCompactBytes = 64 << 20
)

// Metric names the store publishes when Config.Metrics is set.
const (
	MetricWALAppendsTotal    = "accelscore_wal_appends_total"
	MetricWALBytesTotal      = "accelscore_wal_bytes_total"
	MetricWALFsyncsTotal     = "accelscore_wal_fsyncs_total"
	MetricWALFsyncSeconds    = "accelscore_wal_fsync_seconds"
	MetricWALSizeBytes       = "accelscore_wal_size_bytes"
	MetricReplayRecordsTotal = "accelscore_storage_replay_records_total"
	MetricReplaySkippedTotal = "accelscore_storage_replay_skipped_records_total"
	MetricReplayDroppedBytes = "accelscore_storage_replay_dropped_bytes_total"
	MetricCompactionsTotal   = "accelscore_storage_compactions_total"
	MetricSnapshotBytes      = "accelscore_storage_snapshot_bytes"
	MetricLastLSN            = "accelscore_storage_last_lsn"
)

// fsyncBuckets resolve the fsync latency range that matters for commit
// latency: tens of microseconds (page cache + NVMe) up to the hundreds of
// milliseconds a saturated disk can take.
var fsyncBuckets = []float64{
	5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
}

// ErrStoreCorrupt reports a data directory whose snapshot or WAL cannot be
// recovered.
var ErrStoreCorrupt = errors.New("storage: corrupt data directory")

// Config configures Open.
type Config struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Sync selects the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// CompactBytes triggers compaction when the WAL exceeds it; 0 means
	// DefaultCompactBytes, negative disables auto-compaction (tests that
	// need stable WAL offsets rely on this).
	CompactBytes int64
	// Metrics, when set, receives WAL and recovery instrumentation.
	Metrics *obs.Registry
}

// RecoveryInfo describes what Open found and did.
type RecoveryInfo struct {
	// SnapshotLoaded is true when data.snap existed and was read.
	SnapshotLoaded bool
	// SnapshotLSN is the last LSN folded into the loaded snapshot.
	SnapshotLSN uint64
	// ReplayedRecords counts WAL records applied on top of the snapshot.
	ReplayedRecords int
	// SkippedRecords counts valid WAL records already covered by the
	// snapshot (the compaction crash window).
	SkippedRecords int
	// DroppedWALBytes counts torn-tail bytes truncated from the log.
	DroppedWALBytes int64
	// LastLSN is the highest LSN in the recovered state.
	LastLSN uint64
}

// Store is the durability engine: it implements db.Journal, persisting
// every acknowledged mutation to the WAL before it is applied, and folds
// the log into page-format snapshots as it grows.
type Store struct {
	cfg Config
	db  *db.Database
	wal *wal

	// gate quiesces writers during compaction: every journaled op holds the
	// read side (BeginOp/EndOp); Compact takes the write side, so the
	// snapshot it writes contains exactly the ops up to its LSN. Lock order
	// is gate before any db lock — Compact acquires db locks (via Save)
	// only while holding gate exclusively, and writers acquire gate before
	// d.mu / rowsMu.
	gate sync.RWMutex

	// logMu orders LSN assignment with WAL writes so file order equals
	// LSN order. The durability wait runs after it is released.
	logMu   sync.Mutex
	nextLSN uint64
	rec     []byte // record buffer, reused under logMu while it stays small

	recovery RecoveryInfo

	compactMu   sync.Mutex // one compaction at a time
	compactions *obs.Counter
	snapBytes   *obs.Gauge
	lastLSN     *obs.Gauge
}

// Open recovers (or initializes) the data directory and returns the store
// with its database: snapshot loaded, WAL torn tail dropped, surviving
// records replayed, and the journal attached so subsequent mutations are
// durable. The returned database is ready to serve.
func Open(cfg Config) (*Store, *db.Database, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("storage: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = DefaultCompactBytes
	}

	var info RecoveryInfo
	d, snapLSN, loaded, err := loadSnapshot(filepath.Join(cfg.Dir, snapshotFile))
	if err != nil {
		return nil, nil, err
	}
	info.SnapshotLoaded = loaded
	info.SnapshotLSN = snapLSN

	// Without a caller's registry the store meters into a private one, so
	// every metric below is always there to update.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := walMetrics{
		appends:  reg.Counter(MetricWALAppendsTotal, "WAL records appended."),
		bytes:    reg.Counter(MetricWALBytesTotal, "WAL bytes appended."),
		fsyncs:   reg.Counter(MetricWALFsyncsTotal, "WAL fsync calls."),
		fsyncDur: reg.Histogram(MetricWALFsyncSeconds, "WAL fsync duration.", fsyncBuckets),
		size:     reg.Gauge(MetricWALSizeBytes, "Current WAL file size."),
	}
	replayRecords := reg.Counter(MetricReplayRecordsTotal, "WAL records replayed at boot.")
	replaySkipped := reg.Counter(MetricReplaySkippedTotal,
		"Valid WAL records skipped at boot because the snapshot already covered them.")
	replayDropped := reg.Counter(MetricReplayDroppedBytes, "Torn-tail WAL bytes dropped at boot.")
	compactions := reg.Counter(MetricCompactionsTotal, "Compaction snapshots written.")
	snapBytes := reg.Gauge(MetricSnapshotBytes, "Size of the last compaction snapshot.")
	lastLSNGauge := reg.Gauge(MetricLastLSN, "Highest LSN assigned by the store.")

	w, records, dropped, err := openWAL(filepath.Join(cfg.Dir, walFile), cfg.Sync, m)
	if err != nil {
		return nil, nil, err
	}
	info.DroppedWALBytes = dropped
	replayDropped.Add(float64(dropped))

	lastLSN := snapLSN
	for _, rec := range records {
		if rec.lsn <= snapLSN {
			info.SkippedRecords++
			continue
		}
		if err := applyRecord(d, rec); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("%w: replaying LSN %d: %v", ErrStoreCorrupt, rec.lsn, err)
		}
		info.ReplayedRecords++
		lastLSN = rec.lsn
	}
	info.LastLSN = lastLSN
	replayRecords.Add(float64(info.ReplayedRecords))
	replaySkipped.Add(float64(info.SkippedRecords))
	lastLSNGauge.Set(float64(lastLSN))

	s := &Store{
		cfg:         cfg,
		db:          d,
		wal:         w,
		nextLSN:     lastLSN + 1,
		recovery:    info,
		compactions: compactions,
		snapBytes:   snapBytes,
		lastLSN:     lastLSNGauge,
	}
	d.SetJournal(s)
	return s, d, nil
}

// loadSnapshot reads data.snap if present; otherwise returns a fresh db.
func loadSnapshot(path string) (*db.Database, uint64, bool, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return db.New(), 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := f.Read(magic[:]); err != nil || magic != storeMagic {
		return nil, 0, false, fmt.Errorf("%w: snapshot magic", ErrStoreCorrupt)
	}
	hdr, err := pagefmt.ReadFrame(f, 64)
	if err != nil || len(hdr) != 8 {
		return nil, 0, false, fmt.Errorf("%w: snapshot LSN header", ErrStoreCorrupt)
	}
	lsn := binary.LittleEndian.Uint64(hdr)
	d, err := db.Load(f)
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: snapshot body: %v", ErrStoreCorrupt, err)
	}
	return d, lsn, true, nil
}

// applyRecord replays one WAL record against the database. The journal is
// not attached yet, so nothing is re-logged.
func applyRecord(d *db.Database, rec *record) error {
	switch rec.kind {
	case opCreateTable:
		t, err := db.NewTable(rec.table, rec.cols)
		if err != nil {
			return err
		}
		if err := t.AppendRows(rec.rows); err != nil {
			return err
		}
		return d.CreateTable(t)
	case opInsert:
		t, err := d.Table(rec.table)
		if err != nil {
			return err
		}
		return t.AppendRows(rec.rows)
	case opUpdate:
		_, err := d.Update(rec.update)
		return err
	case opDelete:
		_, err := d.Delete(rec.del)
		return err
	case opModelStore:
		return d.StoreModelBlob(rec.model, rec.blob)
	case opModelDelete:
		return d.DeleteModel(rec.model)
	default:
		return fmt.Errorf("%w: op %d", ErrRecord, rec.kind)
	}
}

// Recovery reports what Open found.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// WALSize returns the current WAL length in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// BeginOp and EndOp implement db.Journal's operation bracket: the read side
// of the compaction gate, plus the post-op compaction check (which must run
// after the read lock is released, since Compact takes the write side).
func (s *Store) BeginOp() { s.gate.RLock() }

// EndOp releases the bracket and, if the WAL has outgrown its budget,
// compacts synchronously — the writer that crosses the threshold pays for
// the snapshot, which back-pressures write bursts naturally.
func (s *Store) EndOp() {
	s.gate.RUnlock()
	if s.cfg.CompactBytes > 0 && s.wal.Size() > s.cfg.CompactBytes {
		_ = s.Compact() // failure poisons the WAL; the next write reports it
	}
}

// keepRecord is the largest record buffer the store keeps for the next one.
const keepRecord = 64 << 10

// log assigns the next LSN, appends the record after the room for its frame,
// and writes it, then — outside logMu, so other writers' records can join
// its fsync — waits until the record is durable under the sync policy.
func (s *Store) log(encode func(dst []byte, lsn uint64) []byte) error {
	s.logMu.Lock()
	rec := encode(append(s.rec[:0], make([]byte, pagefmt.FrameOverhead)...), s.nextLSN)
	if cap(rec) <= keepRecord {
		s.rec = rec
	}
	end, err := s.wal.write(rec)
	if err == nil {
		s.lastLSN.Set(float64(s.nextLSN))
		s.nextLSN++
	}
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.waitDurable(end)
}

// LogCreateTable implements db.Journal.
func (s *Store) LogCreateTable(v db.TableView) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendCreateTable(dst, lsn, v) })
}

// LogInsert implements db.Journal.
func (s *Store) LogInsert(table string, cols []db.Column, rows [][]db.Value) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendInsert(dst, lsn, table, cols, rows) })
}

// LogUpdate implements db.Journal.
func (s *Store) LogUpdate(st *db.UpdateStmt) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendUpdate(dst, lsn, st) })
}

// LogDelete implements db.Journal.
func (s *Store) LogDelete(st *db.DeleteStmt) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendDelete(dst, lsn, st) })
}

// LogModelStore implements db.Journal.
func (s *Store) LogModelStore(name string, blob []byte) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendModelStore(dst, lsn, name, blob) })
}

// LogModelDelete implements db.Journal.
func (s *Store) LogModelDelete(name string) error {
	return s.log(func(dst []byte, lsn uint64) []byte { return appendModelDelete(dst, lsn, name) })
}

// Compact writes a snapshot of the current database and truncates the WAL.
// Writers are quiesced for the duration (the gate), so the snapshot's LSN
// covers exactly the records it folds in. Crash-safety: the snapshot lands
// via write-temp + fsync + rename; a crash before the rename leaves the old
// snapshot + full WAL, a crash after it but before the truncation leaves
// the new snapshot + a WAL whose records are all <= the snapshot LSN and
// therefore skipped on replay.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.gate.Lock()
	defer s.gate.Unlock()

	s.logMu.Lock()
	lsn := s.nextLSN - 1
	s.logMu.Unlock()

	final := filepath.Join(s.cfg.Dir, snapshotFile)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = func() error {
		if _, err := f.Write(storeMagic[:]); err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], lsn)
		if _, err := f.Write(pagefmt.AppendFrame(nil, hdr[:])); err != nil {
			return err
		}
		if err := s.db.Save(f); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: writing compaction snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.compactions.Inc()
	if st, err := os.Stat(final); err == nil {
		s.snapBytes.Set(float64(st.Size()))
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close quiesces writers and closes the WAL. The journal stays attached:
// any mutation after Close fails with ErrWALClosed instead of silently
// losing durability.
func (s *Store) Close() error {
	s.gate.Lock()
	defer s.gate.Unlock()
	return s.wal.Close()
}
