package harness

import (
	"testing"

	"accelscore/internal/exec"
	"accelscore/internal/obs"
)

// BenchmarkServeThroughput replays one generated scoring stream through the
// serialized global-mutex baseline and the concurrent executor at several
// worker counts. Each iteration runs against a fresh environment so the
// model cache starts cold, matching how loadgen -mode throughput measures. The qps
// metric is what results/throughput_bench.md tabulates (that file is produced
// by the loadgen run, which uses a larger table and heavier models than this
// test-sized stream).
func BenchmarkServeThroughput(b *testing.B) {
	cfg := LoadConfig{
		Queries:      120,
		Seed:         1,
		Backend:      "CPU_SKLearn",
		TableRows:    256,
		TreeChoices:  []int{8, 32},
		DepthChoices: []int{6, 10},
	}
	opt := RunOptions{Clients: 8}
	cases := []struct {
		name string
		mk   func(env *LoadEnv) QueryRunner
	}{
		{"serialized", func(env *LoadEnv) QueryRunner {
			return &SerializedRunner{Pipe: env.Pipe}
		}},
		{"executor-w1", func(env *LoadEnv) QueryRunner {
			return exec.New(env.Pipe, exec.Config{Workers: 1})
		}},
		{"executor-w4", func(env *LoadEnv) QueryRunner {
			return exec.New(env.Pipe, exec.Config{Workers: 4})
		}},
		{"executor-w8", func(env *LoadEnv) QueryRunner {
			return exec.New(env.Pipe, exec.Config{Workers: 8})
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var qps, wall float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env, err := BuildLoadEnv(cfg, obs.NewObserver())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := RunLoad(env, tc.mk(env), tc.name, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Ok != cfg.Queries {
					b.Fatalf("%d/%d queries ok (%d rejected, %d errors)",
						rep.Ok, cfg.Queries, rep.Rejected, rep.Errors)
				}
				qps += rep.ThroughputQPS
				wall += rep.Wall.Seconds()
			}
			b.ReportMetric(qps/float64(b.N), "qps")
			b.ReportMetric(wall/float64(b.N)*1e3, "ms/stream")
		})
	}
}
