package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelscore/internal/obs"
)

// TestStoreMetricsExposition drives the store through writes, fsyncs, a
// compaction and a crash-window recovery, then scrapes the registry: every
// storage metric must be present, the skipped-records and fsync-duration
// instruments must have fired, the last-LSN gauge must track the store, and
// the whole exposition must pass the strict lint.
func TestStoreMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, d, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	seedTable(t, d)
	for i := 0; i < 4; i++ {
		if _, _, err := d.Query(fmt.Sprintf("INSERT INTO obs VALUES (%d.5, %d)", i, i%2)); err != nil {
			t.Fatal(err)
		}
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
	// Crash window: the snapshot landed but the WAL was never truncated, so
	// reopening must skip every record — and count the skips.
	if err := os.WriteFile(filepath.Join(dir, walFile), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(Config{Dir: dir, Sync: SyncAlways, CompactBytes: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		MetricWALAppendsTotal, MetricWALBytesTotal, MetricWALFsyncsTotal,
		MetricWALFsyncSeconds + "_bucket", MetricWALSizeBytes,
		MetricReplayRecordsTotal, MetricReplaySkippedTotal,
		MetricCompactionsTotal, MetricSnapshotBytes, MetricLastLSN,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
	if v := reg.Counter(MetricReplaySkippedTotal, "").Value(); v == 0 {
		t.Error("crash-window reopen should count skipped records")
	}
	if v := reg.Counter(MetricWALFsyncsTotal, "").Value(); v == 0 {
		t.Error("SyncAlways writes should count fsyncs")
	}
	s2.logMu.Lock()
	lastLSN := s2.nextLSN - 1 // the highest LSN assigned so far
	s2.logMu.Unlock()
	if got, want := reg.Gauge(MetricLastLSN, "").Value(), float64(lastLSN); got != want {
		t.Errorf("last-LSN gauge = %v, want %v", got, want)
	}
	if probs := obs.LintPrometheus(strings.NewReader(out)); len(probs) != 0 {
		msgs := make([]string, len(probs))
		for i, p := range probs {
			msgs[i] = p.String()
		}
		t.Errorf("storage exposition lints dirty:\n%s", strings.Join(msgs, "\n"))
	}
}
