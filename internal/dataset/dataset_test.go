package dataset

import (
	"math"
	"testing"

	"accelscore/internal/xrand"
)

func classCounts(d *Dataset) []int {
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

func TestIrisShape(t *testing.T) {
	d := Iris()
	if d.NumRecords() != 150 || d.NumFeatures() != 4 || d.NumClasses() != 3 {
		t.Fatalf("IRIS shape = %dx%d classes=%d", d.NumRecords(), d.NumFeatures(), d.NumClasses())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for c, n := range classCounts(d) {
		if n != 50 {
			t.Fatalf("class %d has %d samples, want 50", c, n)
		}
	}
	// Spot-check canonical values.
	if d.Row(0)[0] != 5.1 || d.Row(149)[3] != 1.8 {
		t.Fatalf("IRIS values wrong: first=%v last=%v", d.Row(0), d.Row(149))
	}
}

func TestIrisIsACopy(t *testing.T) {
	a := Iris()
	a.X[0] = -1
	a.Y[0] = 2
	b := Iris()
	if b.X[0] == -1 || b.Y[0] == 2 {
		t.Fatal("Iris() returns shared storage")
	}
}

func TestHiggsShape(t *testing.T) {
	d := Higgs(1000, 7)
	if d.NumRecords() != 1000 || d.NumFeatures() != 28 || d.NumClasses() != 2 {
		t.Fatalf("HIGGS shape = %dx%d classes=%d", d.NumRecords(), d.NumFeatures(), d.NumClasses())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHiggsDeterministic(t *testing.T) {
	a := Higgs(500, 42)
	b := Higgs(500, 42)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("HIGGS not deterministic at value %d", i)
		}
	}
	c := Higgs(500, 43)
	diff := false
	for i := range a.X {
		if a.X[i] != c.X[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical HIGGS data")
	}
}

func TestHiggsClassBalance(t *testing.T) {
	d := Higgs(20000, 1)
	counts := classCounts(d)
	frac := float64(counts[1]) / 20000
	if frac < 0.50 || frac > 0.56 {
		t.Fatalf("signal fraction = %v, want ~0.53", frac)
	}
}

func TestHiggsIsLearnable(t *testing.T) {
	// m_bb (feature 25) must separate signal from background: the signal
	// mean should sit well above... the distributions differ measurably.
	d := Higgs(20000, 2)
	var sigSum, bgSum float64
	var sigN, bgN int
	for i := 0; i < d.NumRecords(); i++ {
		v := float64(d.Row(i)[25])
		if d.Y[i] == 1 {
			sigSum += v
			sigN++
		} else {
			bgSum += v
			bgN++
		}
	}
	sigMean, bgMean := sigSum/float64(sigN), bgSum/float64(bgN)
	if math.Abs(sigMean-bgMean) < 0.05 {
		t.Fatalf("m_bb means too close: signal %v background %v", sigMean, bgMean)
	}
}

func TestReplicate(t *testing.T) {
	d := Iris()
	r := d.Replicate(1000)
	if r.NumRecords() != 1000 {
		t.Fatalf("Replicate(1000) gave %d records", r.NumRecords())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows cycle through the source.
	for i := 0; i < 1000; i++ {
		src := d.Row(i % 150)
		got := r.Row(i)
		for j := range src {
			if got[j] != src[j] {
				t.Fatalf("replicated row %d differs from source row %d", i, i%150)
			}
		}
		if r.Y[i] != d.Y[i%150] {
			t.Fatalf("replicated label %d differs", i)
		}
	}
}

func TestReplicateSmallerThanSource(t *testing.T) {
	r := Iris().Replicate(10)
	if r.NumRecords() != 10 {
		t.Fatalf("Replicate(10) gave %d records", r.NumRecords())
	}
}

func TestHead(t *testing.T) {
	d := Iris()
	h := d.Head(7)
	if h.NumRecords() != 7 || len(h.Y) != 7 {
		t.Fatalf("Head(7) = %d records, %d labels", h.NumRecords(), len(h.Y))
	}
	// Clamps to the dataset size.
	if d.Head(1000).NumRecords() != 150 {
		t.Fatal("Head beyond size should clamp")
	}
}

func TestSplit(t *testing.T) {
	d := Iris()
	train, test := d.Split(0.2, xrand.New(1))
	if train.NumRecords()+test.NumRecords() != 150 {
		t.Fatalf("split sizes %d+%d != 150", train.NumRecords(), test.NumRecords())
	}
	if test.NumRecords() != 30 {
		t.Fatalf("test size = %d, want 30", test.NumRecords())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDeterministic(t *testing.T) {
	d := Iris()
	a, _ := d.Split(0.3, xrand.New(5))
	b, _ := d.Split(0.3, xrand.New(5))
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSizeBytes(t *testing.T) {
	d := Iris()
	if got := d.SizeBytes(); got != 150*4*4 {
		t.Fatalf("SizeBytes = %d, want 2400", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := Iris()
	d.X = d.X[:len(d.X)-1]
	if d.Validate() == nil {
		t.Fatal("truncated X not caught")
	}
	d = Iris()
	d.Y[0] = 99
	if d.Validate() == nil {
		t.Fatal("out-of-range label not caught")
	}
	d = Iris()
	d.Y = d.Y[:10]
	if d.Validate() == nil {
		t.Fatal("label-count mismatch not caught")
	}
}

func BenchmarkHiggsGenerate10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Higgs(10000, uint64(i))
	}
}

func BenchmarkReplicateTo100K(b *testing.B) {
	d := Iris()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Replicate(100_000)
	}
}
