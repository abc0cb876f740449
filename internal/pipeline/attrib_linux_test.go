package pipeline_test

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"accelscore/internal/obs"
	"accelscore/internal/pipeline"
)

// TestAttributionScoringCPUCountsTheWorkers: a query of many blocks scores
// on the kernel's worker goroutines, not on the one that brackets the stage,
// and the scoring stage's CPU must still count them — it is most of what the
// process burns during the query (the rest is the table copy, the result
// table and the runtime's own threads).
func TestAttributionScoringCPUCountsTheWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, _, _ := newPipeline(t, 64, 10, 40000)
	p.Obs = obs.NewObserver()
	// The first query compiles the model; time the second.
	if _, err := p.ExecQuery(obsQuery); err != nil {
		t.Fatal(err)
	}
	before := selfCPU(t)
	res, err := p.ExecQuery(obsQuery)
	total := selfCPU(t) - before
	if err != nil {
		t.Fatal(err)
	}
	var scoring obs.StageCost
	for _, c := range res.Attribution {
		if c.Stage == pipeline.StageModelScoring {
			scoring = c
		}
	}
	t.Logf("scoring stage %v of %v process CPU", scoring.CPUTime, total)
	if scoring.CPUTime*2 < total {
		t.Fatalf("scoring stage reports %v CPU, under half the %v the process burned during the query", scoring.CPUTime, total)
	}
}

// selfCPU is the process's user+system CPU time so far.
func selfCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
