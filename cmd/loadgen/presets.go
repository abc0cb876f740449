package main

import "time"

// The preset tables: every configuration loadgen runs, by mode and name.
// "smoke" is the short run CI gates on; "artifact" is the configuration the
// committed JSON records (TestArtifactPresetsMatchCommitted pins the two
// together). A field is here only where the two differ; what they share is a
// constant of its mode.

// Constants every mode that reads them shares.
const (
	seed       = 1  // workload generator, model training and arrival RNG seed
	clients    = 8  // closed-loop clients of the in-process stream
	queueDepth = 64 // executor admission queue depth

	// The tier modes: every query requests CPU_ONNX, and each serve shard
	// is paced at 1x the simulated total, so one shard serves like one
	// simulated scoring device.
	tierBackend = "CPU_ONNX"
	paceScale   = 1.0
)

// zooTrees and zooDepths span the in-process stream's model zoo when a
// preset does not narrow it.
var zooTrees, zooDepths = []int{8, 32, 128}, []int{6, 10}

// throughputConfig is the serving stream replayed through the serialized
// baseline and then through the executor at each of Workers (0 =
// GOMAXPROCS). SLO, when set, holds per-class latency objectives
// (class=duration,...): queries are classified by record count and each row
// gains per-class goodput.
type throughputConfig struct {
	Queries int    `json:"queries"`
	Rows    int    `json:"rows"`
	Trees   []int  `json:"trees"`
	Depths  []int  `json:"depths"`
	Workers []int  `json:"workers"`
	SLO     string `json:"slo,omitempty"`
}

var throughputPresets = map[string]throughputConfig{
	"smoke": {Queries: 40, Rows: 64, Trees: []int{32, 128}, Depths: []int{6}, Workers: []int{0}},
	// The objectives are loose enough that a healthy run on modest hardware
	// meets them, tight enough that the serialized baseline's queueing shows
	// up as burned budget.
	"artifact": {Queries: 200, Rows: 2048, Trees: zooTrees, Depths: zooDepths, Workers: []int{1, 4, 8},
		SLO: "interactive=100ms,batch=1s"},
}

// chaosConfig is the healthy-vs-chaos stream: its size and the fault plan
// (backend:boundary:kind[:trigger];...) with the injector's seed. The
// artifact's plan is the resilience layer's acceptance scenario: 20%
// busy invocation faults plus one forced device hang, which hang detection
// and CPU fallback must absorb. (FPGA stands in for the accelerator: RAPIDS
// FIL cannot score the 3-class IRIS models.) Smoke adds crashes.
type chaosConfig struct {
	Queries   int    `json:"queries"`
	Rows      int    `json:"rows"`
	Faults    string `json:"faults"`
	FaultSeed uint64 `json:"fault_seed"`
}

var chaosPresets = map[string]chaosConfig{
	"smoke": {Queries: 80, Rows: 128, FaultSeed: 7,
		Faults: "FPGA:invoke:busy:p=0.2;FPGA:compute:hang=2s:once=5;FPGA:invoke:crash:every=9"},
	"artifact": {Queries: 120, Rows: 256, FaultSeed: 1,
		Faults: "FPGA:invoke:busy:p=0.2;FPGA:compute:hang=2s:once=5"},
}

// fusionConfig is the fused-vs-unfused matrix's table and model: a
// scoring-dominated regime (big forest, big table) is where skipped rows
// are visible wins; JunkCols pads the wide table with non-feature columns.
type fusionConfig struct {
	Rows     int `json:"rows"`
	Trees    int `json:"trees"`
	Depth    int `json:"depth"`
	Repeats  int `json:"repeats"`
	JunkCols int `json:"junk_cols"`
}

var fusionPresets = map[string]fusionConfig{
	"smoke":    {Rows: 512, Trees: 32, Depth: 6, Repeats: 2, JunkCols: 12},
	"artifact": {Rows: 8192, Trees: 256, Depth: 10, Repeats: 5, JunkCols: 46},
}

// restartConfig is the SIGKILL-under-write-load scenario: kill/restart
// cycles, the write window of each, concurrent writers, and the serve WAL
// sync policy (always|batch|none).
type restartConfig struct {
	Kills    int           `json:"kills"`
	WriteFor time.Duration `json:"write_for_ns"`
	Writers  int           `json:"writers"`
	Fsync    string        `json:"fsync"`
}

var restartPresets = map[string]restartConfig{
	"smoke":       {Kills: 2, WriteFor: 700 * time.Millisecond, Writers: 4, Fsync: "always"},
	"smoke-batch": {Kills: 2, WriteFor: 700 * time.Millisecond, Writers: 4, Fsync: "batch"},
	"artifact":    {Kills: 3, WriteFor: time.Second, Writers: 8, Fsync: "always"},
}

// scaleoutConfig is the shards x records sweep (the first shard count
// anchors the speedups) and the closed-loop queries in each cell.
type scaleoutConfig struct {
	Shards  []int `json:"shards"`
	Records []int `json:"records"`
	Queries int   `json:"queries_per_cell"`
}

var scaleoutPresets = map[string]scaleoutConfig{
	"smoke":    {Shards: []int{1, 2, 3}, Records: []int{1000}, Queries: 3},
	"artifact": {Shards: []int{1, 2, 4}, Records: []int{2000, 50000, 400000}, Queries: 8},
}

// overloadConfig is the demo table per shard and the offered load points,
// as multiples of calibrated saturation.
type overloadConfig struct {
	Records int       `json:"records"`
	Mults   []float64 `json:"load_multiples"`
}

var overloadPresets = map[string]overloadConfig{
	"smoke":    {Records: 400, Mults: []float64{1, 2}},
	"artifact": {Records: 500, Mults: []float64{0.5, 1, 2}},
}
