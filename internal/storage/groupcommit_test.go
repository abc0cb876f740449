package storage

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelscore/internal/db"
	"accelscore/internal/obs"
)

// waitFor polls cond, yielding between polls, and fails the test if it does
// not hold within ten seconds. It waits on a state, never on a duration.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fsyncGate replaces a store's WAL fsync: the first call blocks until
// release is closed and then returns fail (a real fsync when fail is nil);
// every later call is a real fsync.
type fsyncGate struct {
	calls    atomic.Int32
	returned atomic.Bool // the first call has returned
	release  chan struct{}
}

func gateFsync(s *Store, fail error) *fsyncGate {
	g := &fsyncGate{release: make(chan struct{})}
	real := s.wal.sync
	s.wal.sync = func() error {
		if g.calls.Add(1) > 1 {
			return real()
		}
		<-g.release
		defer g.returned.Store(true)
		if fail != nil {
			return fail
		}
		return real()
	}
	return g
}

// openTables opens a SyncBatch store with n one-column tables t0..t(n-1)
// and returns its WAL appends counter.
func openTables(t *testing.T, dir string, n int) (*Store, *db.Database, *obs.Counter) {
	t.Helper()
	reg := obs.NewRegistry()
	s, d, err := Open(Config{Dir: dir, Sync: SyncBatch, CompactBytes: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := d.Query(fmt.Sprintf("CREATE TABLE t%d (x REAL)", i)); err != nil {
			t.Fatal(err)
		}
	}
	return s, d, reg.Counter(MetricWALAppendsTotal, "")
}

// insertAsync INSERTs one row into table ti on its own goroutine and
// delivers the acknowledgement on the returned channel.
func insertAsync(d *db.Database, ti int) <-chan error {
	ack := make(chan error, 1)
	go func() {
		_, _, err := d.Query(fmt.Sprintf("INSERT INTO t%d VALUES (%d.5)", ti, ti))
		ack <- err
	}()
	return ack
}

// leaderAndFollowers starts one INSERT that becomes the SyncBatch leader and
// blocks in the gated fsync, then n-1 INSERTs on other tables that write
// their records during that fsync. It returns once all n records are in the
// log (appends counts them), with the leader's fsync still held.
func leaderAndFollowers(t *testing.T, d *db.Database, appends *obs.Counter, g *fsyncGate, n int) []<-chan error {
	t.Helper()
	base := appends.Value()
	acks := []<-chan error{insertAsync(d, 0)}
	waitFor(t, "the leader's fsync", func() bool { return g.calls.Load() == 1 })
	for i := 1; i < n; i++ {
		acks = append(acks, insertAsync(d, i))
	}
	waitFor(t, "every record written", func() bool { return appends.Value() == base+float64(n) })
	return acks
}

// TestGroupCommitSharesOneFsync: eight writers on eight tables. The first
// leads and its fsync is held; the other seven write their records during
// it and wait. Released, the leader's fsync covers its own record and one
// more fsync covers all seven: two fsyncs for eight acknowledged INSERTs.
func TestGroupCommitSharesOneFsync(t *testing.T) {
	const writers = 8
	dir := t.TempDir()
	s, d, appends := openTables(t, dir, writers)
	g := gateFsync(s, nil)
	acks := leaderAndFollowers(t, d, appends, g, writers)
	close(g.release)
	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatalf("INSERT %d not acknowledged: %v", i, err)
		}
	}
	if got := g.calls.Load(); got != 2 {
		t.Fatalf("%d fsyncs for %d INSERTs, want 2", got, writers)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	requireSameState(t, d, d2)
}

// TestCloseWaitsForLeaderFsync: Close during a held leader fsync returns
// only after it, the batch's writers are acknowledged and durable, and a
// later write fails with ErrWALClosed.
func TestCloseWaitsForLeaderFsync(t *testing.T) {
	dir := t.TempDir()
	s, d, appends := openTables(t, dir, 2)
	g := gateFsync(s, nil)
	acks := leaderAndFollowers(t, d, appends, g, 2)

	closed := make(chan bool, 1) // whether the leader's fsync had returned
	go func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		closed <- g.returned.Load()
	}()
	// Close is waiting once a new reader can no longer enter the gate.
	waitFor(t, "Close to wait on the writers", func() bool {
		if s.gate.TryRLock() {
			s.gate.RUnlock()
			return false
		}
		return true
	})
	close(g.release)
	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatalf("INSERT %d not acknowledged: %v", i, err)
		}
	}
	if !<-closed {
		t.Fatal("Close returned before the leader's fsync")
	}
	if err := <-insertAsync(d, 1); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("write after Close: %v, want ErrWALClosed", err)
	}
	s2, d2 := openStore(t, dir, SyncAlways)
	defer s2.Close()
	for _, name := range []string{"t0", "t1"} {
		if tbl, err := d2.Table(name); err != nil || tbl.NumRows() != 1 {
			t.Fatalf("table %s after reopen: %v", name, err)
		}
	}
}

// TestFailedLeaderFsyncFailsItsBatch: when the leader's fsync fails, every
// writer waiting on it gets the error, and the sticky error refuses every
// later write.
func TestFailedLeaderFsyncFailsItsBatch(t *testing.T) {
	injected := errors.New("injected fsync failure")
	s, d, appends := openTables(t, t.TempDir(), 3)
	defer s.Close()
	g := gateFsync(s, injected)
	acks := leaderAndFollowers(t, d, appends, g, 3)
	close(g.release)
	for i, ack := range acks {
		if err := <-ack; !errors.Is(err, injected) {
			t.Fatalf("INSERT %d in the failed batch: %v, want the fsync error", i, err)
		}
	}
	if err := <-insertAsync(d, 2); !errors.Is(err, injected) {
		t.Fatalf("write after a failed fsync: %v, want the sticky error", err)
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d fsyncs, want only the failed one", got)
	}
}

// BenchmarkJournaledInsert times one-row INSERTs under SyncBatch with 1, 2
// and 8 writers, each on its own table, and reports fsyncs per INSERT: the
// share of an fsync each commit pays once writers group.
func BenchmarkJournaledInsert(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			reg := obs.NewRegistry()
			s, d, err := Open(Config{Dir: b.TempDir(), Sync: SyncBatch, CompactBytes: -1, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			sqls := make([]string, writers)
			for i := range sqls {
				if _, _, err := d.Query(fmt.Sprintf("CREATE TABLE t%d (x REAL)", i)); err != nil {
					b.Fatal(err)
				}
				sqls[i] = fmt.Sprintf("INSERT INTO t%d VALUES (%d.5)", i, i)
			}
			fsyncs := reg.Counter(MetricWALFsyncsTotal, "")
			before := fsyncs.Value()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, sql := range sqls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, _, err := d.Query(sql); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric((fsyncs.Value()-before)/float64(b.N), "fsyncs/op")
		})
	}
}
