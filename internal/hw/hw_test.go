package hw

import (
	"math"
	"testing"
	"time"
)

func TestPCIeEffectiveBandwidth(t *testing.T) {
	l := DefaultPCIeGen3x16GPU()
	got := l.EffectiveBytesPerSec()
	want := 15.754e9 * 0.70
	if math.Abs(got-want) > 1 {
		t.Fatalf("EffectiveBytesPerSec = %v, want %v", got, want)
	}
}

func TestPCIeTransferTime(t *testing.T) {
	l := PCIeLink{RawGBps: 10, Efficiency: 1, PerTransfer: 10 * time.Microsecond}
	// 10 GB at 10 GB/s = 1 s plus fixed cost.
	got := l.TransferTime(10e9)
	want := time.Second + 10*time.Microsecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	// Zero bytes still pays the doorbell.
	if got := l.TransferTime(0); got != 10*time.Microsecond {
		t.Fatalf("TransferTime(0) = %v", got)
	}
}

func TestPCIeStreamTimeNoFixedCost(t *testing.T) {
	l := PCIeLink{RawGBps: 1, Efficiency: 1, PerTransfer: time.Millisecond}
	if got := l.StreamTime(1e9); got != time.Second {
		t.Fatalf("StreamTime = %v, want 1s", got)
	}
}

func TestPCIeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	DefaultPCIeGen3x16GPU().TransferTime(-1)
}

func TestCPUEfficiency(t *testing.T) {
	c := DefaultCPU()
	if got := c.Efficiency(1); got != 1 {
		t.Fatalf("Efficiency(1) = %v", got)
	}
	if got := c.Efficiency(0); got != 1 {
		t.Fatalf("Efficiency(0) = %v", got)
	}
	e52 := c.Efficiency(52)
	if e52 < 25 || e52 > 27 {
		t.Fatalf("Efficiency(52) = %v, want ~25.7", e52)
	}
	// Requests beyond the hardware thread count are clamped.
	if got := c.Efficiency(104); got != e52 {
		t.Fatalf("Efficiency(104) = %v, want clamp to %v", got, e52)
	}
	// Monotonic in thread count.
	prev := 0.0
	for n := 1; n <= 52; n++ {
		e := c.Efficiency(n)
		if e < prev {
			t.Fatalf("efficiency not monotonic at %d threads: %v < %v", n, e, prev)
		}
		prev = e
	}
}

func TestFeatureFactor(t *testing.T) {
	if got := FeatureFactor(0.035, 4); math.Abs(got-1.14) > 1e-9 {
		t.Fatalf("FeatureFactor(IRIS) = %v", got)
	}
	if got := FeatureFactor(0.035, 28); math.Abs(got-1.98) > 1e-9 {
		t.Fatalf("FeatureFactor(HIGGS) = %v", got)
	}
}

func TestSKLearnScoringTimeAnchors(t *testing.T) {
	c := DefaultCPU()
	// 1M records x 1 tree x 10 levels on IRIS, 52 threads: ~19 ms.
	got := c.SKLearnScoringTime(10_000_000, 4, 52)
	if got < 15*time.Millisecond || got > 25*time.Millisecond {
		t.Fatalf("SKLearn IRIS 1Mx1t = %v, want ~19ms", got)
	}
	// Setup dominates at 1 record.
	one := c.SKLearnScoringTime(10, 4, 52)
	if one < c.SKLearnBatchSetup {
		t.Fatalf("1-record latency %v below batch setup", one)
	}
}

func TestONNXScoringTimeAnchors(t *testing.T) {
	c := DefaultCPU()
	// CPU_ONNX_52th at 1M x 128 trees x 10 levels IRIS: ~2.4 s (the 54x
	// FPGA baseline).
	got := c.ONNXScoringTime(1_280_000_000, 4, 52)
	if got < 2*time.Second || got > 3*time.Second {
		t.Fatalf("ONNX52 IRIS 1Mx128t = %v, want ~2.4s", got)
	}
	// Single-thread call at 1 record is ~invoke cost only.
	one := c.ONNXScoringTime(1280, 4, 1)
	if one > 500*time.Microsecond {
		t.Fatalf("ONNX single-record latency = %v, want < 0.5ms", one)
	}
	// The 52-thread variant pays the pool setup.
	if c.ONNXScoringTime(0, 4, 52) <= c.ONNXScoringTime(0, 4, 1) {
		t.Fatal("pool setup not charged for multi-thread ONNX")
	}
}

func TestGPUHBTraversalAnchor(t *testing.T) {
	g := DefaultGPU()
	// 1M x 128 trees x 10 levels: ~291 ms.
	got := g.HBTraversalTime(1_280_000_000)
	if got < 250*time.Millisecond || got > 350*time.Millisecond {
		t.Fatalf("HB traversal = %v, want ~291ms", got)
	}
}

func TestGPURAPIDSSpillPenalty(t *testing.T) {
	g := DefaultGPU()
	inCache := g.RAPIDSTraversalTime(1_000_000, g.L2CacheBytes)
	spilled := g.RAPIDSTraversalTime(1_000_000, g.L2CacheBytes+1)
	ratio := float64(spilled) / float64(inCache)
	if math.Abs(ratio-g.RAPIDSSpillPenalty) > 0.01 {
		t.Fatalf("spill ratio = %v, want %v", ratio, g.RAPIDSSpillPenalty)
	}
}

func TestGPURAPIDSConvertAnchor(t *testing.T) {
	g := DefaultGPU()
	got := g.RAPIDSConvertTime(112 << 20)
	if got < 115*time.Millisecond || got > 130*time.Millisecond {
		t.Fatalf("cuDF conversion = %v, want ~120ms", got)
	}
}

func TestFPGACycleTime(t *testing.T) {
	f := DefaultFPGA()
	if got := f.CycleTime(); got != 4*time.Nanosecond {
		t.Fatalf("CycleTime = %v, want 4ns at 250MHz", got)
	}
}

func TestFPGAInitiationInterval(t *testing.T) {
	f := DefaultFPGA()
	if got := f.InitiationInterval(1); got != 1 {
		t.Fatalf("II(1) = %v, want 1", got)
	}
	if got := f.InitiationInterval(128); math.Abs(got-10) > 1e-9 {
		t.Fatalf("II(128) = %v, want 10", got)
	}
	// Clamped at both ends.
	if f.InitiationInterval(0) != 1 || f.InitiationInterval(500) != f.InitiationInterval(128) {
		t.Fatal("II clamping broken")
	}
}

func TestFPGAScoringTimeAnchors(t *testing.T) {
	f := DefaultFPGA()
	// 1M records, 1 tree: ~4 ms.
	one := f.ScoringTime(1_000_000, 1)
	if one < 3900*time.Microsecond || one > 4100*time.Microsecond {
		t.Fatalf("FPGA 1Mx1t = %v, want ~4ms", one)
	}
	// 1M records, 128 trees: ~40 ms ("tens of milliseconds", §IV-B).
	full := f.ScoringTime(1_000_000, 128)
	if full < 39*time.Millisecond || full > 41*time.Millisecond {
		t.Fatalf("FPGA 1Mx128t = %v, want ~40ms", full)
	}
	// Single record is ns-scale compute (§IV-B: "scoring itself is in the
	// order of nanoseconds").
	single := f.ScoringTime(1, 128)
	if single > time.Microsecond {
		t.Fatalf("FPGA 1-record compute = %v, want sub-µs", single)
	}
}

func TestFPGATreeMemoryAndFit(t *testing.T) {
	f := DefaultFPGA()
	// Depth-10 full binary tree: 2^10 * 16B = 16 KB (§III-B).
	if got := f.TreeMemoryBytes(10); got != 16*1024 {
		t.Fatalf("TreeMemoryBytes(10) = %d, want 16384", got)
	}
	bytes, ok := f.ModelFits(128, 10)
	if !ok {
		t.Fatal("128 depth-10 trees should fit BRAM")
	}
	if bytes != 128*16*1024 {
		t.Fatalf("model bytes = %d", bytes)
	}
	// Depth beyond the architectural limit never fits.
	if _, ok := f.ModelFits(1, 11); ok {
		t.Fatal("depth-11 tree must not fit (MaxTreeDepth=10)")
	}
	// More trees than PEs: only the resident pass counts against BRAM.
	resBytes, ok := f.ModelFits(256, 10)
	if !ok || resBytes != 128*16*1024 {
		t.Fatalf("resident bytes for 256 trees = %d ok=%v", resBytes, ok)
	}
}

func TestFPGAPasses(t *testing.T) {
	f := DefaultFPGA()
	cases := map[int]int{0: 0, 1: 1, 128: 1, 129: 2, 256: 2, 257: 3}
	for trees, want := range cases {
		if got := f.Passes(trees); got != want {
			t.Errorf("Passes(%d) = %d, want %d", trees, got, want)
		}
	}
}

func TestRuntimeCosts(t *testing.T) {
	r := DefaultRuntime()
	// 112 MB over the IPC path ~ 0.93 s.
	ipc := r.IPCTime(112 << 20)
	if ipc < 900*time.Millisecond || ipc > 1050*time.Millisecond {
		t.Fatalf("IPCTime(112MB) = %v", ipc)
	}
	if r.ModelDeserializeTime(0) != r.ModelDeserializeFixed {
		t.Fatal("model deserialize fixed cost wrong")
	}
	if got := r.DataPreprocTime(1000, 28); got != time.Duration(1000*28*15)*time.Nanosecond {
		t.Fatalf("DataPreprocTime = %v", got)
	}
	if got := r.PostprocTime(1000); got != 60*time.Microsecond {
		t.Fatalf("PostprocTime = %v", got)
	}
}

func TestTightIntegrationIsFaster(t *testing.T) {
	loose, tight := DefaultRuntime(), TightlyIntegratedRuntime()
	if tight.ProcessInvoke >= loose.ProcessInvoke {
		t.Fatal("tight integration should have cheaper invocation")
	}
	if tight.IPCTime(1<<20) >= loose.IPCTime(1<<20) {
		t.Fatal("tight integration should have faster data handoff")
	}
}

func TestInterruptCostsMoreThanCSR(t *testing.T) {
	f := DefaultFPGA()
	// §IV-B: setup via CSRs is cheaper than interrupt-based completion.
	if f.CSRSetup >= f.InterruptLatency {
		t.Fatal("CSR setup should cost less than interrupt completion")
	}
}
