package storage

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/storage/pagefmt"
)

// SyncPolicy selects when the WAL reaches stable storage relative to the
// commit acknowledgement.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every commit returns: maximum durability,
	// one fsync per write.
	SyncAlways SyncPolicy = iota
	// SyncBatch is group commit: a commit blocks until an fsync covers its
	// record. The first waiter leads and fsyncs at once; writers arriving
	// during that fsync share the next one, so concurrent writers amortize
	// one fsync across the batch (8 writers on distinct tables: 0.22 fsyncs
	// per write). Acknowledged writes are still crash-durable.
	SyncBatch
	// SyncNone never fsyncs on the commit path (the OS flushes when it
	// pleases). Fastest, but a crash can lose the unsynced suffix —
	// acknowledged writes included. Benchmarks only.
	SyncNone
)

// syncPolicyNames spells each policy as its flag value, both ways.
var syncPolicyNames = [...]string{SyncAlways: "always", SyncBatch: "batch", SyncNone: "none"}

// String returns the flag spelling.
func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(syncPolicyNames) {
		return syncPolicyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy maps a flag value, in any case ("" is always), to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	if i := slices.Index(syncPolicyNames[:], strings.ToLower(cmp.Or(s, "always"))); i >= 0 {
		return SyncPolicy(i), nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, batch, or none)", s)
}

// ErrWALClosed reports an append after Close.
var ErrWALClosed = errors.New("storage: WAL closed")

// maxWALRecord bounds a single framed record (a CREATE TABLE record carries
// the table's initial rows, so the cap is generous).
const maxWALRecord = 1 << 30

// walMetrics are the observability hooks.
type walMetrics struct {
	appends  *obs.Counter
	bytes    *obs.Counter
	fsyncs   *obs.Counter
	fsyncDur *obs.Histogram
	size     *obs.Gauge
}

// wal is the append-only log writer. Writes are serialized by mu; a SyncBatch
// leader fsyncs outside it. A sticky error poisons the writer after any I/O
// failure so no later commit is acknowledged against a log of unknown state.
type wal struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast when a leader's fsync ends or the writer dies
	f      *os.File
	sync   func() error // f.Sync; a test seam, not an option
	path   string
	policy SyncPolicy

	size    int64 // bytes appended
	synced  int64 // bytes known fsynced
	syncing bool  // a SyncBatch leader is fsyncing outside mu
	err     error // sticky
	closed  bool

	m walMetrics
}

// openWAL opens (creating if needed) the log at path, scans it for the
// valid record prefix, truncates any torn tail, and returns the writer plus
// the decoded records and how many trailing bytes were dropped.
//
// The scan treats the first invalid byte as end-of-log — the standard WAL
// convention: a torn tail can only exist at the point the crash interrupted
// the last write, so everything before the first bad frame is intact
// (each frame and record is CRC-checked and fully decoded).
func openWAL(path string, policy SyncPolicy, m walMetrics) (*wal, []*record, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	records, valid := scanWAL(data)
	dropped := int64(len(data)) - valid
	if dropped > 0 {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("storage: dropping torn WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, 0, err
	}

	w := &wal{
		f:      f,
		sync:   f.Sync,
		path:   path,
		policy: policy,
		size:   valid,
		synced: valid,
		m:      m,
	}
	w.cond = sync.NewCond(&w.mu)
	m.size.Set(float64(valid))
	return w, records, dropped, nil
}

// scanWAL decodes the longest valid record prefix of data. LSNs must be
// strictly increasing; a regression means the bytes are not a log we wrote.
func scanWAL(data []byte) ([]*record, int64) {
	var records []*record
	var off int64
	var lastLSN uint64
	for int(off) < len(data) {
		payload, consumed, err := pagefmt.DecodeFrame(data[off:], maxWALRecord)
		if err != nil {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		if rec.lsn <= lastLSN {
			break
		}
		lastLSN = rec.lsn
		records = append(records, rec)
		off += int64(consumed)
	}
	return records, off
}

// write frames one record in place — rec is its payload after
// pagefmt.FrameOverhead bytes of room — writes it with one Write and returns
// the log's end offset after it. Under SyncAlways it fsyncs before
// returning, so the record is on stable storage when write returns nil;
// under SyncBatch the caller passes the offset to waitDurable.
func (w *wal) write(rec []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWALClosed
	}
	pagefmt.PutFrameHeader(rec)
	n, err := w.f.Write(rec)
	w.size += int64(n)
	if err != nil {
		w.err = fmt.Errorf("storage: WAL append: %w", err)
		w.cond.Broadcast()
		return 0, w.err
	}
	w.m.appends.Inc()
	w.m.bytes.Add(float64(n))
	w.m.size.Set(float64(w.size))
	if w.policy == SyncAlways {
		if err := w.timedSync(); err != nil {
			w.err = fmt.Errorf("storage: WAL fsync: %w", err)
			w.cond.Broadcast()
			return 0, w.err
		}
		w.synced = w.size
	}
	return w.size, nil
}

// waitDurable is SyncBatch's group commit (other policies return at once): it
// blocks until the log is fsynced through end. The first waiter to find no
// fsync in flight leads: it fsyncs at once, without holding mu, and advances
// synced to the size it saw before the fsync. Records written during that
// fsync pile up and share the next leader's fsync.
func (w *wal) waitDurable(end int64) error {
	if w.policy != SyncBatch {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < end {
		switch {
		case w.err != nil:
			return w.err
		case w.closed:
			return ErrWALClosed
		case w.syncing:
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.size
		w.mu.Unlock()
		err := w.timedSync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("storage: WAL fsync: %w", err)
		} else {
			w.synced = target
		}
		w.cond.Broadcast()
	}
	return nil
}

// timedSync fsyncs the log file, charging the fsync counter and duration
// histogram on success. Callers hold w.mu, except a SyncBatch leader.
func (w *wal) timedSync() error {
	t0 := time.Now()
	if err := w.sync(); err != nil {
		return err
	}
	w.m.fsyncs.Inc()
	w.m.fsyncDur.Observe(time.Since(t0).Seconds())
	return nil
}

// Size returns bytes currently in the log.
func (w *wal) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// reset truncates the log to empty — called after a compaction snapshot has
// durably landed, making every logged record redundant. Compaction quiesces
// writers first, so no leader is fsyncing.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = err
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		w.err = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.size, w.synced = 0, 0
	w.m.size.Set(0)
	return nil
}

// Close waits out a leader's fsync, fsyncs the rest (unless SyncNone) and
// closes the log. Writes after Close fail with ErrWALClosed — a mutation can
// never be silently non-durable.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.err == nil && w.policy != SyncNone && w.size > w.synced {
		if err = w.timedSync(); err == nil {
			w.synced = w.size
		}
	}
	cerr := w.f.Close()
	if err == nil {
		err = cerr
	}
	w.cond.Broadcast()
	return err
}
