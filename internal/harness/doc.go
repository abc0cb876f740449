// Package harness is the measurement code behind cmd/loadgen — everything
// a loadgen mode needs besides its own workload description and verdict
// gates — with exactly one of each shared job: the process fleet
// (fleet.go), the closed- and open-loop client drivers (driver.go), the
// oracle check (oracle.go), the percentile rule (stats.go) and the artifact
// writers (report.go). On top of those sit the three in-process workloads
// loadgen replays (load.go, chaos.go, fusionbench.go).
//
// Only cmd/loadgen imports this package: cmd/serve, cmd/router and bench/
// never link measurement code.
package harness
